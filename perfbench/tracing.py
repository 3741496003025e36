"""The traced run: span and count wrappers installed from outside the program.

``installed(tracer)`` rebinds each wrapped function in every ``idealcat``
module that bound it by name (``verifier`` imports ``compose``, for one)
and patches the class methods that carry the hot arithmetic. Leaving the
``with`` block restores the originals. Spans are kept in memory: each
wrapper adds its duration minus the time of the spans nested inside it to
its layer's self time, and the first SPAN_SAMPLE spans are also kept raw
and written to a JSON file when the run ends. High-frequency equality and
divisibility tests are counted, not timed.

``EXPECTED_CALLS`` lists the wrappers each workload must exercise, and
``EXPECTED_IDLE`` the ones it must not. Which end-to-end metric each layer
should move is recorded in README.md.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import cli_startup
import idealcat as ic
from idealcat import constructions, formats, fracfield, hasse, ideals, poly, rings, verifier
from idealcat.errors import DoesNotExist

SPAN_SAMPLE = 20_000
PROBE_REPEATS = 5

SPANS = {
    # span name: the functions it wraps, as (module, attribute)
    "formats.parse": [(formats, n) for n in
                      ("parse_ideal", "parse_morphism", "ideal_from_json", "morphism_from_json")],
    "formats.render": [(formats, n) for n in
                       ("format_ideal", "format_morphism", "ideal_to_json", "morphism_to_json",
                        "homset_to_json", "kernel_to_json", "cokernel_to_json",
                        "biproduct_to_json", "factorization_to_json", "splitting_to_json",
                        "tables_to_json", "report_to_json")],
    "constructions.kernel": [(constructions, "kernel")],
    "constructions.cokernel": [(constructions, "cokernel")],
    "constructions.biproduct": [(constructions, "biproduct")],
    "constructions.factorization": [(constructions, "canonical_factorization")],
    "constructions.split": [(constructions, "split_idempotent")],
    "ideals.compose": [(ideals, "compose")],
    "ideals.hom_add": [(ideals, "hom_add")],
    "ideals.morphism_new": [(ideals, "morphism_new")],
    "ideals.morphism_eq": [(ideals.Morphism, "__eq__")],
    "ideals.enumerate_hom": [(ideals, "enumerate_hom")],
    "ideals.enumerate_objects": [(ideals, "enumerate_objects")],
    "rings.gcd": [(rings.Ring, "gcd"), (rings.IntegerRing, "gcd")],
    "fracfield.mul": [(fracfield.Fraction, "__mul__")],
    "fracfield.add": [(fracfield.Fraction, "__add__")],
    "fracfield.reduce": [(fracfield, "fraction_reduce")],
    "poly.mul": [(poly.Poly, "__mul__")],
    "poly.divmod": [(poly.Poly, "__divmod__")],
    "hasse.poset_dot": [(hasse, "poset_dot")],
    "verifier.check_axioms": [(verifier, "check_axioms")],
    "verifier.audit_existence": [(verifier, "audit_existence")],
    "verifier.brute_force_hom_set": [(verifier, "brute_force_hom_set")],
}
COUNTERS = {
    "rings.eq": [(rings.Ring, "__eq__")],
    "rings.divides": [(rings.IntegerRing, "divides"), (rings.ModularRing, "divides"),
                      (rings.RationalPolynomialRing, "divides")],
}
LAWS = ("compose", "add", "kernel", "factorize", "split")
VERIFY_KEYS = {("zmod:12", "full"): "zmod12", ("zmod:16", "full"): "zmod16",
               ("z", "full"): "z", ("qpoly", "full"): "qpoly"}


def _units() -> dict[str, str]:
    u = {"cli.import_s": "s", "cli.build_parser_s": "s", "cli.python_floor_s": "s",
         "formats.parse.calls": "count", "formats.parse.self_s": "s",
         "formats.render.calls": "count", "formats.render.self_s": "s",
         "formats.untyped_errors": "count"}
    for c in ("kernel", "cokernel", "biproduct", "factorization", "split"):
        u.update({f"constructions.{c}.calls": "count", f"constructions.{c}.self_s": "s",
                  f"constructions.{c}.refused": "count"})
    for c in ("compose", "hom_add", "morphism_new", "morphism_eq", "enumerate_hom",
              "enumerate_objects"):
        u.update({f"ideals.{c}.calls": "count", f"ideals.{c}.self_s": "s"})
    u.update({"rings.eq.calls": "count", "rings.gcd.calls": "count", "rings.gcd.self_s": "s",
              "rings.divides.calls": "count"})
    for c in ("mul", "add", "reduce"):
        u.update({f"fracfield.{c}.calls": "count", f"fracfield.{c}.self_s": "s"})
    u["fracfield.reduce.noop_ratio"] = "ratio"
    for c in ("mul", "divmod"):
        u.update({f"poly.{c}.calls": "count", f"poly.{c}.self_s": "s"})
    u["poly.max_coeff_bits"] = "bits"
    u.update({"hasse.poset_dot.calls": "count", "hasse.poset_dot.self_s": "s"})
    for k in ("zmod12", "zmod16", "z", "qpoly"):
        u[f"verifier.verify_ring_s.{k}"] = "s"
    u.update({"verifier.check_axioms.self_s": "s", "verifier.audit_existence.self_s": "s",
              "verifier.brute_force_hom_set.calls": "count"})
    for law in LAWS:
        u[f"verifier.law_calls.{law}"] = "count"
    u["trace.overhead_ratio"] = "ratio"
    return u


LAYER_UNITS = _units()

_LAW_COUNTS = [f"verifier.law_calls.{law}" for law in LAWS]
EXPECTED_CALLS = {
    "verify-zmod": ["ideals.compose.calls", "ideals.hom_add.calls", "ideals.morphism_eq.calls",
                    "rings.eq.calls", "fracfield.mul.calls", "fracfield.add.calls",
                    "verifier.check_axioms.self_s", "verifier.audit_existence.self_s",
                    "verifier.brute_force_hom_set.calls", *_LAW_COUNTS],
    "verify-sampled": ["poly.mul.calls", "poly.divmod.calls", "fracfield.reduce.calls",
                       "rings.gcd.calls", "ideals.compose.calls", "ideals.hom_add.calls",
                       "verifier.check_axioms.self_s", *_LAW_COUNTS],
    "library-ops": ["formats.parse.calls", "formats.render.calls", "ideals.compose.calls",
                    "ideals.enumerate_hom.calls", "ideals.enumerate_objects.calls",
                    "hasse.poset_dot.calls", "verifier.brute_force_hom_set.calls",
                    "poly.mul.calls", "rings.gcd.calls",
                    *(f"constructions.{c}.calls" for c in
                      ("kernel", "cokernel", "biproduct", "factorization", "split")),
                    "constructions.cokernel.refused"],
    "cli-startup": ["formats.parse.calls", "formats.render.calls"],
}
EXPECTED_IDLE = {
    "verify-zmod": ["poly.mul.calls", "poly.divmod.calls"],
}


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.agg: dict[str, list] = {}
        self.counts: dict[str, list[int]] = {}
        self.sample: list[tuple] = []
        self.reduce_gcds = [0, 0]  # reductions that ran a gcd, and those whose gcd was a unit
        self.max_coeff_bits = 0

    def span(self, name: str, fn, observe=None):
        agg = self.agg.setdefault(name, [0, 0.0])
        refused = self.counts.setdefault(f"{name}.refused", [0])
        stack, sample, clock = self.stack, self.sample, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except DoesNotExist:
                refused[0] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(sample) < SPAN_SAMPLE:
                    sample.append((name, len(stack), t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observe_reduce(self, args, result) -> None:
        ring, num, den = args
        num, den = ring.coerce(num), ring.coerce(den)
        if not ring.is_domain or ring.is_zero(num):
            return
        self.reduce_gcds[0] += 1
        if isinstance(den, int):
            self.reduce_gcds[1] += result.den == abs(den)
        else:
            self.reduce_gcds[1] += result.den.degree == den.degree

    def observe_divmod(self, args, result) -> None:
        for p in args:
            for c in p.coeffs:
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the tracer itself measures, 0 if unseen."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"], out[f"{name}.self_s"] = self.agg.get(name, (0, 0.0))
            out[f"{name}.refused"] = self.counts.get(f"{name}.refused", [0])[0]
        for name in COUNTERS:
            out[f"{name}.calls"] = self.counts.get(name, [0])[0]
        for law in LAWS:
            out[f"verifier.law_calls.{law}"] = self.counts.get(f"law.{law}", [0])[0]
        gcds, noop = self.reduce_gcds
        out["fracfield.reduce.noop_ratio"] = noop / gcds if gcds else 0.0
        out["poly.max_coeff_bits"] = self.max_coeff_bits
        return {k: v for k, v in out.items() if k in LAYER_UNITS}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        payload = {
            "self_time_s": {k: v[1] for k, v in self.agg.items()},
            "calls": {k: v[0] for k, v in self.agg.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
            "spans": [{"name": n, "depth": d, "start": s, "end": e}
                      for n, d, s, e in self.sample],
        }
        path.write_text(json.dumps(payload))


def _rebind(orig, new) -> list:
    """Point every idealcat module attribute bound to ``orig`` at ``new``."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "idealcat" or mod_name.startswith("idealcat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                undo.append((mod, attr, orig))
    return undo


@contextlib.contextmanager
def installed(tracer: Tracer):
    undo = []
    observers = {"fracfield.reduce": tracer.observe_reduce,
                 "poly.divmod": tracer.observe_divmod}
    try:
        for table, make in ((SPANS, None), (COUNTERS, tracer.counter)):
            for name, targets in table.items():
                for owner, attr in targets:
                    orig = vars(owner)[attr]
                    new = (make(name, orig) if make else
                           tracer.span(name, orig, observers.get(name)))
                    if isinstance(owner, type):
                        setattr(owner, attr, new)
                        undo.append((owner, attr, orig))
                    else:
                        undo += _rebind(orig, new)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def counting_laws(tracer: Tracer):
    """A LawTable that counts each law call and delegates to STANDARD_LAWS,
    through the compose/add spans so that law calls are timed too."""
    std = ic.STANDARD_LAWS
    timed = {"compose": tracer.span("ideals.compose", std.compose),
             "add": tracer.span("ideals.hom_add", std.add),
             "kernel": tracer.span("constructions.kernel", std.kernel),
             "factorize": tracer.span("constructions.factorization", std.factorize),
             "split": tracer.span("constructions.split", std.split)}
    return replace(std, **{
        law: tracer.counter(f"law.{law}", timed.get(law, getattr(std, law))) for law in LAWS
    })


def verify_ring_seconds(requests, latencies) -> dict[str, float]:
    """verify_ring_s metrics from the requests that have one, else 0."""
    out = {f"verifier.verify_ring_s.{k}": 0.0 for k in VERIFY_KEYS.values()}
    for req, lat in zip(requests, latencies):
        key = VERIFY_KEYS.get((req.ring, req.mode))
        if key is not None:
            out[f"verifier.verify_ring_s.{key}"] = lat
    return out


def _spawn_seconds(root: Path, args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=cli_startup.child_env(), cwd=root,
                          capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, proc.stderr


def _import_seconds(stderr: str) -> float:
    """Cumulative -X importtime of idealcat and idealcat.cli, in seconds."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("idealcat", "idealcat.cli"):
            total += int(parts[1])
    return total / 1e6


def cli_probes(root: Path) -> dict[str, float]:
    from idealcat import cli

    floor = [_spawn_seconds(root, ["-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    imports = [_import_seconds(_spawn_seconds(root, ["-X", "importtime", "-c",
                                                     "import idealcat.cli"])[1])
               for _ in range(PROBE_REPEATS)]
    parser_times = []
    for _ in range(50):
        t0 = time.perf_counter()
        cli.build_parser()
        parser_times.append(time.perf_counter() - t0)
    return {"cli.import_s": statistics.median(imports),
            "cli.build_parser_s": statistics.median(parser_times),
            "cli.python_floor_s": statistics.median(floor)}


def missing_calls(workload: str, values: dict) -> list[str]:
    problems = [f"trace: {name} saw no calls on {workload}"
                for name in EXPECTED_CALLS.get(workload, []) if not values.get(name)]
    problems += [f"trace: {name} saw calls on {workload}, where none were predicted"
                 for name in EXPECTED_IDLE.get(workload, []) if values.get(name)]
    return problems
