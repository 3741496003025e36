"""The four workloads and their output checks.

A workload offers ``prepare(seed) -> state`` (input generation;
``state.requests`` is the fixed pass), ``warm_up(state)``,
``execute(state, request, laws) -> str`` (one timed request; ``laws`` is
None except in the traced and self-test runs),
``check(state, outputs) -> [(index, message)]`` (independent checks of the
first pass), ``probes(seed)`` (requests a traced run times once),
``untyped_errors(state)`` (the untyped-failure probe count),
``peak_rss_mb(state)`` and ``in_process`` (the workload a traced run
traces).
"""

from __future__ import annotations

import hashlib
import json
import resource
from collections import namedtuple
from pathlib import Path

import cli_startup
import idealcat as ic
import library_ops

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# the seed whose outputs are recorded in reference/
DEFAULT_SEED = 0

VerifyRequest = namedtuple("VerifyRequest", "ring mode seed samples")
VerifyState = namedtuple("VerifyState", "seed requests reference check_names")
CLI_SAMPLES = ic.Bounds().samples  # the sample count the CLI's verify uses


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def load_reference(name: str):
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def project_report(report: dict) -> dict:
    """The parts of Report.to_json() a verdict consists of; keys added to
    the report later (such as per-check case counts) are ignored."""
    return {
        "checks": [{k: c.get(k) for k in ("name", "status", "witness")}
                   for c in report["checks"]],
        "totals": {k: report["totals"].get(k) for k in ("pass", "fail", "discrepancy")},
    }


def report_key(req: VerifyRequest) -> str:
    return f"{req.ring} {req.mode} seed={req.seed} samples={req.samples}"


class VerifyWorkload:
    """verify_ring over a fixed list of requests, with the CLI's default
    bounds except for the seed and the sample count.

    ``requests(seed)`` gives the pass; ``probes(seed)`` gives requests at the
    CLI's defaults that are too slow to repeat in every pass: traced runs
    time each once, for the per-layer verify_ring_s metrics."""

    def __init__(self, name: str, requests, probes):
        self.name = name
        self.requests = requests
        self.probes = probes
        self.in_process = self

    def untyped_errors(self, state) -> int:
        return 0

    def peak_rss_mb(self, state) -> float:
        return self_peak_rss_mb()

    def prepare(self, seed: int) -> VerifyState:
        recorded = load_reference(f"{self.name}-seed{DEFAULT_SEED}")
        names = None
        if recorded is not None:
            names = {" ".join(k.split()[:2]): [c["name"] for c in v["checks"]]
                     for k, v in recorded.items()}
        requests = self.requests(seed)
        # the recorded reports apply when they cover every request of the pass
        covered = recorded is not None and all(report_key(r) in recorded for r in requests)
        return VerifyState(seed, requests, recorded if covered else None, names)

    def warm_up(self, state) -> None:
        req = state.requests[0]
        ring = "zmod:4" if req.ring.startswith("zmod") else req.ring
        ic.verify_ring(ic.ring_from_literal(ring), ic.Bounds(seed=req.seed, samples=10), req.mode)

    def execute(self, state, req: VerifyRequest, laws=None) -> str:
        bounds = ic.Bounds(seed=req.seed, samples=req.samples)
        report = ic.verify_ring(ic.ring_from_literal(req.ring), bounds, req.mode, laws)
        return json.dumps(report.to_json(), sort_keys=True)

    def check(self, state, outputs) -> list[tuple[int, str]]:
        problems = []
        for i, (req, out) in enumerate(zip(state.requests, outputs)):
            key = report_key(req)
            got = project_report(json.loads(out))
            if state.reference is not None:
                if got != state.reference.get(key):
                    problems.append((i, f"{key}: report differs from the recorded reference"))
                continue
            fails = [c["name"] for c in got["checks"] if c["status"] == "fail"]
            if fails:
                problems.append((i, f"{key}: failing checks {fails}"))
            names = [c["name"] for c in got["checks"]]
            if state.check_names is None or names != state.check_names.get(f"{req.ring} {req.mode}"):
                problems.append((i, f"{key}: check names differ from the reference list"))
        return problems


class StreamWorkload:
    """A module-backed request stream (library-ops, cli-startup)."""

    def __init__(self, name: str, module):
        self.name = name
        self.module = module
        self.in_process = getattr(module, "IN_PROCESS", self)

    def probes(self, seed: int) -> list:
        return []

    def peak_rss_mb(self, state) -> float:
        """The process's peak, or the largest child's where the module
        runs its requests in children."""
        own = getattr(self.module, "peak_rss_mb", None)
        return own(state) if own else self_peak_rss_mb()

    def untyped_errors(self, state) -> int:
        probe = getattr(self.module, "run_probes", None)
        return probe(state) if probe else 0

    def prepare(self, seed: int):
        return self.module.prepare(seed)

    def warm_up(self, state) -> None:
        self.module.warm_up(state)

    def execute(self, state, req, laws=None) -> str:
        return self.module.execute(state, req, laws)

    def check(self, state, outputs) -> list[tuple[int, str]]:
        problems = self.module.check(state, outputs)
        if state.seed == DEFAULT_SEED:
            digests = load_reference(f"{self.name}-seed{DEFAULT_SEED}")
            got = [digest(o) for o in outputs]
            if digests is None or len(digests) != len(got):
                problems.append((0, "no usable recorded reference for the default seed"))
            else:
                problems += [(i, "output differs from the recorded reference")
                             for i, (a, b) in enumerate(zip(got, digests)) if a != b]
        return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


ZMOD_PASS = (*range(2, 12), 13)
SUB_SEEDS = 20
SUB_SAMPLES = 25


def _zmod_requests(seed: int) -> list[VerifyRequest]:
    """Z_n for n = 2..11 with the audits and 13 without; the seed has no
    effect. zmod:12 and zmod:16 run for several seconds each, too long to
    repeat in every pass, so they are probes."""
    return [VerifyRequest(f"zmod:{n}", ic.FULL, DEFAULT_SEED, CLI_SAMPLES) for n in ZMOD_PASS]


def _sampled_requests(seed: int) -> list[VerifyRequest]:
    """z (full and paper) and qpoly (full) at SUB_SEEDS seeds derived from
    the workload seed, SUB_SAMPLES samples each: as much work as one
    verify at the CLI's 500 samples, cut into requests short enough to
    repeat in every pass."""
    return [VerifyRequest(ring, mode, seed * SUB_SEEDS + k, SUB_SAMPLES)
            for k in range(SUB_SEEDS)
            for ring, mode in (("z", ic.FULL), ("z", ic.PAPER), ("qpoly", ic.FULL))]


WORKLOADS = {
    "verify-zmod": VerifyWorkload(
        "verify-zmod", _zmod_requests,
        lambda seed: [VerifyRequest(f"zmod:{n}", ic.FULL, DEFAULT_SEED, CLI_SAMPLES)
                      for n in (12, 16)]),
    "verify-sampled": VerifyWorkload(
        "verify-sampled", _sampled_requests,
        lambda seed: [VerifyRequest(r, ic.FULL, seed, CLI_SAMPLES) for r in ("z", "qpoly")]),
    "library-ops": StreamWorkload("library-ops", library_ops),
    "cli-startup": StreamWorkload("cli-startup", cli_startup),
}
