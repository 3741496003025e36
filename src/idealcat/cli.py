"""Command line front end.

Exit codes: 0 success (discrepancy-only verification included), 1 usage or
parse errors, 2 mathematical non-existence (cokernel/biproduct/splitting/
inclusion refusals), 3 verification failure (any fail entry in a report).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .constructions import (
    biproduct,
    canonical_factorization,
    cokernel,
    kernel,
    split_idempotent,
)
from .errors import DoesNotExist, IdealCatError, ParseError
from .hasse import poset_dot
from .ideals import (
    FULL,
    MODES,
    apply,
    compose,
    enumerate_hom,
    enumerate_objects,
    hom_add,
)
from .rings import Ring, ring_from_literal
from .verifier import Bounds, brute_force_hom_set, verify_ring


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise ParseError(message)


def _common_flags() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--ring", required=True, help="ring literal: z, zmod:<n> or qpoly")
    common.add_argument("--mode", choices=MODES, default=FULL,
                        help="multiplier universe (default: full)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=0, help="verifier sampling seed")
    common.add_argument("--max-abs", type=int, default=25,
                        help="bound on sampled integers over z, at least 1 (qpoly ignores it)")
    common.add_argument("--max-n", type=int, default=12,
                        help="largest modulus for the exhaustive existence searches")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = _Parser(prog="idealcat",
                     description="Exact category of ideals over z, zmod:<n> and qpoly.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("objects", parents=[common],
                   help="list all ideals (zmod only)")
    p = sub.add_parser("homs", parents=[common], help="describe Hom(A, B)")
    p.add_argument("A"), p.add_argument("B")
    p = sub.add_parser("compose", parents=[common],
                       help="compose F G: the morphism F after G")
    p.add_argument("F"), p.add_argument("G")
    p = sub.add_parser("add", parents=[common], help="hom-group sum of F and G")
    p.add_argument("F"), p.add_argument("G")
    p = sub.add_parser("apply", parents=[common], help="evaluate F at element X")
    p.add_argument("F"), p.add_argument("X")
    p = sub.add_parser("kernel", parents=[common], help="kernel of F")
    p.add_argument("F")
    p = sub.add_parser("cokernel", parents=[common],
                       help="cokernel of F (zero map and surjections only)")
    p.add_argument("F")
    p = sub.add_parser("biproduct", parents=[common],
                       help="biproduct of A and B (trivial intersection only)")
    p.add_argument("A"), p.add_argument("B")
    p = sub.add_parser("factor", parents=[common],
                       help="canonical factorization F = j q through the image")
    p.add_argument("F")
    p = sub.add_parser("split", parents=[common], help="split the idempotent E")
    p.add_argument("E")
    sub.add_parser("poset", parents=[common],
                   help="DOT Hasse diagram of the subideal order (zmod only)")
    sub.add_parser("verify", parents=[common],
                   help="run every axiom check plus the existence audits")
    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force hom listing as function tables (zmod only)")
    p.add_argument("A"), p.add_argument("B")
    return parser


def _emit(payload, human: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(human)


def _morphism_out(f) -> tuple[dict, str]:
    return formats.morphism_to_json(f), f.literal


def _run(args, ring: Ring) -> int:
    mode = args.mode
    cmd = args.command

    if cmd == "objects":
        objs = enumerate_objects(ring)
        _emit([A.literal for A in objs], "\n".join(A.literal for A in objs), args.json)
        return 0

    if cmd == "homs":
        hs = enumerate_hom(formats.parse_ideal(ring, args.A),
                           formats.parse_ideal(ring, args.B), mode)
        head = f"base {hs.base}"
        if hs.modulus is not None:
            head += f" modulus {hs.modulus}"
        lines = [head]
        if hs.elements is not None:
            lines += [f.literal for f in hs.elements]
        _emit(formats.homset_to_json(hs), "\n".join(lines), args.json)
        return 0

    if cmd == "compose":
        outer = formats.parse_morphism(ring, args.F, mode)
        inner = formats.parse_morphism(ring, args.G, mode)
        payload, human = _morphism_out(compose(outer, inner))
        _emit(payload, human, args.json)
        return 0

    if cmd == "add":
        f = formats.parse_morphism(ring, args.F, mode)
        g = formats.parse_morphism(ring, args.G, mode)
        payload, human = _morphism_out(hom_add(f, g))
        _emit(payload, human, args.json)
        return 0

    if cmd == "apply":
        f = formats.parse_morphism(ring, args.F, mode)
        value = apply(f, ring.parse_element(args.X))
        text = ring.format_element(value)
        _emit({"value": text}, text, args.json)
        return 0

    if cmd == "kernel":
        pair = kernel(formats.parse_morphism(ring, args.F, mode))
        human = f"object {pair.object.literal}\ninclusion {pair.inclusion.literal}"
        _emit(formats.kernel_to_json(pair), human, args.json)
        return 0

    if cmd == "cokernel":
        pair = cokernel(formats.parse_morphism(ring, args.F, mode))
        human = f"object {pair.object.literal}\nprojection {pair.projection.literal}"
        _emit(formats.cokernel_to_json(pair), human, args.json)
        return 0

    if cmd == "biproduct":
        bp = biproduct(formats.parse_ideal(ring, args.A),
                       formats.parse_ideal(ring, args.B))
        human = "\n".join([
            f"object {bp.object.literal}",
            f"p1 {bp.p1.literal}", f"p2 {bp.p2.literal}",
            f"i1 {bp.i1.literal}", f"i2 {bp.i2.literal}",
        ])
        _emit(formats.biproduct_to_json(bp), human, args.json)
        return 0

    if cmd == "factor":
        fact = canonical_factorization(formats.parse_morphism(ring, args.F, mode))
        human = f"q {fact.epi.literal}\nj {fact.inclusion.literal}"
        _emit(formats.factorization_to_json(fact), human, args.json)
        return 0

    if cmd == "split":
        split = split_idempotent(formats.parse_morphism(ring, args.E, mode))
        human = "\n".join([
            f"object {split.object.literal}",
            f"retraction {split.retraction.literal}",
            f"section {split.section.literal}",
        ])
        _emit(formats.splitting_to_json(split), human, args.json)
        return 0

    if cmd == "poset":
        dot = poset_dot(ring)
        _emit({"dot": dot}, dot.rstrip("\n"), args.json)
        return 0

    if cmd == "verify":
        bounds = Bounds(seed=args.seed, max_abs=args.max_abs, search_ceiling=args.max_n)
        report = verify_ring(ring, bounds, mode)
        lines = [f"{c.status:<11} {c.name}" for c in report.checks]
        totals = report.totals
        lines.append(
            f"totals: pass={totals['pass']} fail={totals['fail']} "
            f"discrepancy={totals['discrepancy']}"
        )
        _emit(formats.report_to_json(report), "\n".join(lines), args.json)
        return 3 if report.failed else 0

    if cmd == "oracle":
        tables = brute_force_hom_set(formats.parse_ideal(ring, args.A),
                                     formats.parse_ideal(ring, args.B))
        lines = [f"count {len(tables)}"] + [
            ", ".join(f"{x}->{y}" for x, y in table) for table in tables
        ]
        _emit(formats.tables_to_json(tables), "\n".join(lines), args.json)
        return 0

    raise ParseError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_abs < 1:
            parser.error(f"--max-abs must be at least 1, got {args.max_abs}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        ring = ring_from_literal(args.ring)
        return _run(args, ring)
    except DoesNotExist as exc:
        _report_error(exc, args.json)
        return 2
    except IdealCatError as exc:
        _report_error(exc, args.json)
        return 1


def _report_error(exc: IdealCatError, as_json: bool) -> None:
    if as_json:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
