"""Host-speed calibration for the timed loop.

The benchmark's reference host (a 2-vCPU Intel Xeon VM, Python 3.11.7)
switches between two speeds on a scale of seconds to minutes: the same
pure-Python loop takes either ~40 ms or ~65 ms, in process CPU time as well
as in wall time, because the slowdown comes from neighbours on the physical
machine. A run that happens to fall in a slow stretch reads up to 1.8x
slower, which no statistic inside a 25-second run can undo.

So the timed loop runs a fixed calibration unit every CAL_INTERVAL_S and
around each pass, and every request latency is divided by the host's speed
factor at that moment: the mean of the calibration samples just before and
just after the request, over CAL_NOMINAL_S. Times are therefore reported
in *nominal seconds*: seconds on a host where one calibration unit takes
CAL_NOMINAL_S, which is the unit's time on the reference host in its fast
state. The calibration uses only the standard library and runs with the
garbage collector switched off, so that the program's heap (which a full
collection would have to walk) does not leak into the host factor; raw
times are printed beside the normalized ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

CAL_NOMINAL_S = 0.0075
CAL_INTERVAL_S = 0.25


def calibration_unit() -> float:
    """Seconds for a fixed mix of int, dict and Fraction work, the kind of
    interpreter work idealcat does. Runs with gc off: it measures the host,
    not the size of the heap around it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return _unit()
    finally:
        if gc_was_on:
            gc.enable()


def _unit() -> float:
    t0 = time.perf_counter()
    acc = 0
    table = {}
    f = Fraction(1, 3)
    for i in range(4000):
        acc += (i * i) % 7
        table[(i & 63, i % 5)] = acc
        if i % 8 == 0:
            f = (f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)).limit_denominator(1000)
    return time.perf_counter() - t0


class SpeedTrace:
    """Calibration samples taken during one pass, and for each request the
    index of the last sample before it."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -float("inf")

    def sample(self, force: bool = False) -> int:
        """Take a sample if one is due (or forced); return the index of the
        latest sample."""
        now = time.perf_counter()
        if force or now - self.last >= CAL_INTERVAL_S:
            self.samples.append(calibration_unit())
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Host slowdown for a request between samples ``before`` and
        ``before + 1``."""
        pair = self.samples[before:before + 2]
        return sum(pair) / len(pair) / CAL_NOMINAL_S
