"""idealcat benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed. The loop is closed with
one client in one process: each request starts when the previous one has
returned. Inputs come from ``--seed`` and are generated before the timed
loop. The loop repeats the workload's fixed request list ("a pass") while
another pass still fits in ``--seconds``; every pass runs at least once.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones (see ``E2E_UNITS``);
with ``--trace 1`` they are the per-layer ones from ``tracing.py``. The
lines before it repeat the figures for a human reader, with the tail
percentile and its sample count.
The exit code is 0 when every output check passed and 1 when one failed;
the result line is printed in both cases.

``--self-test`` runs one verify-zmod pass with the law mutation
``compose-adds-multipliers`` and exits 0 only if the output checks count
every affected ring as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_FALLBACK = 90.0
SETUP_REPEATS = 5


def _import_program():
    """Import idealcat from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "idealcat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no idealcat sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import idealcat

    if Path(idealcat.__file__).resolve().parent != SRC / "idealcat":
        sys.exit(f"perfbench: imported idealcat from {idealcat.__file__}, not from {SRC}")
    return idealcat


def quantile(sorted_values: list[float], p: float) -> float:
    """The p-th percentile (p may have two decimals) of an ascending list,
    interpolated between order statistics."""
    if p == 50.0:
        return statistics.median(sorted_values)
    cuts = statistics.quantiles(sorted_values, n=10_000, method="inclusive")
    return cuts[round(p * 100) - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n requests beyond
    it, or TAIL_FALLBACK when there are too few requests for any."""
    best = TAIL_FALLBACK
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            best = p
    return best


class Passes:
    """What timed_passes saw: the first pass's outputs, the (pass, request)
    pairs whose output differed from them, and per pass the nominal and raw
    pass times, the host slowdown and each request's nominal latency."""

    def __init__(self, n_requests: int):
        self.first: list[str] = []
        self.repeats_differing: list[tuple[int, int]] = []
        self.pass_times: list[float] = []
        self.raw_pass_times: list[float] = []
        self.slowdowns: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in range(n_requests)]

    def request_medians(self) -> list[float]:
        """Each request's median nominal latency over the passes."""
        return [statistics.median(lats) for lats in self.latencies]


def timed_passes(workload, state, seconds: float, laws=None, first=None) -> Passes:
    """Repeat the pass while another one fits in ``seconds``. Outputs of
    later passes are compared with the first pass (or with ``first``) as
    they arrive, so memory does not grow with the number of passes.
    Calibration samples taken between requests are not part of any timing."""
    deadline = time.perf_counter() + seconds
    requests = state.requests
    seen = Passes(len(requests))
    execute = workload.execute
    clock = time.perf_counter
    while True:
        reference = first if first is not None else (seen.first if seen.pass_times else None)
        outs, raw, marks = [], [], []
        speed = calibration.SpeedTrace()
        t_pass = clock()
        speed.sample(force=True)
        for req in requests:
            marks.append(speed.sample())
            t0 = clock()
            out = execute(state, req, laws)
            raw.append(clock() - t0)
            outs.append(out)
        speed.sample(force=True)
        now = clock()
        nominal = 0.0
        for i, (lat, mark) in enumerate(zip(raw, marks)):
            seen.latencies[i].append(lat / speed.factor(mark))
            nominal += seen.latencies[i][-1]
        p = len(seen.pass_times)
        seen.pass_times.append(nominal)
        seen.raw_pass_times.append(sum(raw))
        seen.slowdowns.append(statistics.median(speed.samples) / calibration.CAL_NOMINAL_S)
        if reference is None:
            seen.first = outs
        else:
            seen.repeats_differing += [(p, i) for i, (a, b) in
                                       enumerate(zip(reference, outs)) if a != b]
        if now + (now - t_pass) > deadline:
            return seen


def judge(workload, state, runs: list[Passes]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): the first pass of the first run is
    checked independently; every other pass must repeat it exactly."""
    problems = workload.check(state, runs[0].first)
    bad = {i for i, _ in problems}
    attempted = failed = 0
    for seen in runs:
        differing = set(seen.repeats_differing)
        passes = len(seen.pass_times)
        attempted += passes * len(state.requests)
        failed += sum(1 for p in range(passes) for i in range(len(state.requests))
                      if i in bad or (p, i) in differing)
        problems += [(i, f"pass {p} output differs from the first pass")
                     for p, i in seen.repeats_differing]
    return attempted, failed, [f"request {i}: {msg}" for i, msg in problems]


def import_seconds() -> float:
    """A fresh interpreter's import of the program and the benchmark modules,
    which is what this process did before its first request."""
    code = "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]),
               PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def setup(workload, seed: int):
    """Set up SETUP_REPEATS times: import in a fresh interpreter, generate
    the inputs and warm up. Each repeat is divided by the host slowdown
    measured just before and after it; report the median, in nominal
    seconds, and keep the last state."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        before = calibration.calibration_unit()
        raw = import_seconds()
        t0 = time.perf_counter()
        state = workload.prepare(seed)
        workload.warm_up(state)
        raw += time.perf_counter() - t0
        slowdown = (before + calibration.calibration_unit()) / 2 / calibration.CAL_NOMINAL_S
        times.append(raw / slowdown)
    return state, statistics.median(times)


def run_untraced(workload, args) -> dict:
    state, setup_s = setup(workload, args.seed)
    seen = timed_passes(workload, state, args.seconds)
    attempted, failed, problems = judge(workload, state, [seen])
    lat = sorted(seen.request_medians())
    tail_p = tail_percentile(len(lat))
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(seen.pass_times),
        "op_p50_ms": quantile(lat, 50.0) * 1e3,
        "op_tail_ms": quantile(lat, tail_p) * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(state),
    }
    print(f"# workload {args.workload} seed {args.seed}: {len(seen.pass_times)} passes, "
          f"{len(lat)} requests, tail = p{tail_p:g}, failed_ratio = "
          f"{failed}/{attempted}, untyped-error probes = {workload.untyped_errors(state)}")
    print(f"# raw wall_s = {statistics.median(seen.raw_pass_times):.6g} s, host slowdown "
          f"per pass = {', '.join(f'{x:.3f}' for x in seen.slowdowns)}")
    return _result(problems, attempted, failed, values, E2E_UNITS)


def run_traced(workload, args) -> dict:
    import tracing

    state, _ = setup(workload, args.seed)
    base = timed_passes(workload, state, 0.0)
    # cli-startup is traced in process; its untraced in-process pass is the
    # base of the overhead ratio
    local = workload.in_process
    local_base = base if local is workload else timed_passes(local, state, 0.0, None, base.first)
    tracer = tracing.Tracer()
    laws = tracing.counting_laws(tracer)
    with tracing.installed(tracer):
        traced = timed_passes(local, state, 0.0, laws, base.first)
    runs = [base, traced] if local_base is base else [base, local_base, traced]
    attempted, failed, problems = judge(workload, state, runs)
    values = tracer.layer_metrics()
    values.update(tracing.cli_probes(ROOT))
    probes = workload.probes(args.seed)
    probe_best = []
    if probes:
        probe_state = state._replace(requests=probes)
        probe_seen = timed_passes(workload, probe_state, 0.0)
        problems += [f"probe {probes[i].ring}: {msg}"
                     for i, msg in workload.check(probe_state, probe_seen.first)]
        probe_best = probe_seen.request_medians()
    values.update(tracing.verify_ring_seconds(probes, probe_best))
    values["formats.untyped_errors"] = workload.untyped_errors(state)
    values["trace.overhead_ratio"] = traced.pass_times[0] / local_base.pass_times[0]
    problems += tracing.missing_calls(args.workload, values)
    tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json")
    return _result(problems, attempted, failed, values, tracing.LAYER_UNITS)


def _result(problems, attempted, failed, values, units) -> dict:
    for line in problems[:20]:
        print(f"# problem: {line}", file=sys.stderr)
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def self_test() -> int:
    ic = _import_program()
    import workloads

    wl = workloads.WORKLOADS["verify-zmod"]
    state = wl.prepare(0)
    mutant = ic.law_mutations()["compose-adds-multipliers"]
    seen = timed_passes(wl, state, 0.0, mutant)
    attempted, failed, _ = judge(wl, state, [seen])
    print(f"# self-test: mutated verify-zmod pass failed {failed} of {attempted} requests")
    return 0 if failed == attempted else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    result = run(workload, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
