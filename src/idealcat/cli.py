"""Command line front end.

Exit codes: 0 success (discrepancy-only verification included), 1 usage or
parse errors, 2 mathematical non-existence (cokernel/biproduct/splitting/
inclusion refusals), 3 verification failure (any fail entry in a report),
141 stdout closed before the answer was written (the shell's code for
SIGPIPE, as in ``verify ... | head -1``). Running out of memory is exit 1,
``error: out of memory`` (with ``--json``, an error of type MemoryError),
never a verdict and never a traceback.

Listings are bounded: ``homs`` over Z_n refuses a hom-set of more than
``ideals.MAX_HOM_LISTING`` morphisms, ``objects``, ``poset`` and ``verify``
refuse Z_n with n above ``rings.MAX_OBJECT_MODULUS`` (10^12), as the ring's
``ideal_generators`` does for any caller, ``verify`` refuses a Z_n of more
than ``ideals.MAX_VERIFY_CASES`` composition cases, as ``verify_ring``
does, and ``oracle`` refuses a modulus above ``ORACLE_MAX_MODULUS``; each
with ListingTooLarge, exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from . import formats
from .constructions import biproduct, canonical_factorization, cokernel, kernel, split_idempotent
from .errors import DoesNotExist, IdealCatError, ListingTooLarge, ParseError
from .hasse import poset_dot
from .ideals import FULL, MODES, apply, compose, enumerate_hom, enumerate_objects, hom_add
from .rings import ring_from_literal


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise ParseError(message)


def _objects(args, ring):
    literals = [A.literal for A in enumerate_objects(ring)]
    return literals, "\n".join(literals), 0


def _homs(args, ring, A, B):
    hs = enumerate_hom(A, B, args.mode)
    head = f"base {hs.base}" + ("" if hs.modulus is None else f" modulus {hs.modulus}")
    lines = [head] + [f.literal for f in hs.elements or ()]
    return formats.homset_to_json(hs), "\n".join(lines), 0


def _apply(args, ring, f, x):
    text = ring.format_element(apply(f, x))
    return {"value": text}, text, 0


def _poset(args, ring):
    dot = poset_dot(ring)
    return {"dot": dot}, dot.rstrip("\n"), 0


def _verify(args, ring):
    from .verifier import Bounds, verify_ring  # loaded here: only verify and oracle need it

    bounds = Bounds(seed=args.seed, max_abs=args.max_abs, search_ceiling=args.max_n)
    report = verify_ring(ring, bounds, args.mode)
    t = report.totals
    lines = [f"{c.status:<11} {c.name}" for c in report.checks]
    lines.append(f"totals: pass={t['pass']} fail={t['fail']} discrepancy={t['discrepancy']}")
    return formats.report_to_json(report), "\n".join(lines), 3 if report.failed else 0


# The brute-force oracle and its listing are quadratic in n, n tables of n
# pairs for Hom(<1>, <1>): 0.01 s at the limit, 0.15 s at 500 (CPython 3.11).
ORACLE_MAX_MODULUS = 128


def _oracle(args, ring, A, B):
    if ring.characteristic > ORACLE_MAX_MODULUS:
        raise ListingTooLarge(f"oracle needs a modulus of at most {ORACLE_MAX_MODULUS}, "
                              f"got {ring.literal}")
    from .verifier import brute_force_hom_set

    tables = brute_force_hom_set(A, B)
    lines = [f"count {len(tables)}"] + [", ".join(f"{x}->{y}" for x, y in t) for t in tables]
    return formats.tables_to_json(tables), "\n".join(lines), 0


class _Command(NamedTuple):
    """A subcommand. Operand letters pick the parser: A, B ideals, E, F, G
    morphisms, X a ring element. The operation and the ``formats`` codec are
    names looked up at run time, so rebinding a module attribute reaches them.
    With a codec the operation maps the operands to a result, shown as its
    literal or one line per part, labelled with the part's key in the JSON
    payload; without one it takes (args, ring, *operands) and returns the
    JSON payload, the human text and the exit code."""

    help: str
    operands: str
    operation: str
    codec: str | None = None


_COMMANDS = {
    "objects": _Command("list all ideals (zmod only)", "", "_objects"),
    "homs": _Command("describe Hom(A, B)", "AB", "_homs"),
    "compose": _Command("compose F G: the morphism F after G", "FG", "compose",
                        "morphism_to_json"),
    "add": _Command("hom-group sum of F and G", "FG", "hom_add", "morphism_to_json"),
    "apply": _Command("evaluate F at element X", "FX", "_apply"),
    "kernel": _Command("kernel of F", "F", "kernel", "kernel_to_json"),
    "cokernel": _Command("cokernel of F (zero map and surjections only)", "F", "cokernel",
                         "cokernel_to_json"),
    "biproduct": _Command("biproduct of A and B (trivial intersection only)", "AB", "biproduct",
                          "biproduct_to_json"),
    "factor": _Command("canonical factorization F = j q through the image", "F",
                       "canonical_factorization", "factorization_to_json"),
    "split": _Command("split the idempotent E", "E", "split_idempotent", "splitting_to_json"),
    "poset": _Command("DOT Hasse diagram of the subideal order (zmod only)", "", "_poset"),
    "verify": _Command("run every axiom check plus the existence audits", "", "_verify"),
    "oracle": _Command("brute-force hom listing as function tables (zmod only)", "AB",
                       "_oracle"),
}


def build_parser() -> argparse.ArgumentParser:
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
    parser = _Parser(prog="idealcat",
                     description="Exact category of ideals over z, zmod:<n> and qpoly.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for letter in command.operands:
            p.add_argument(letter)
    return parser


def _operand(letter: str, text: str, ring, mode: str):
    if letter in "AB":
        return formats.parse_ideal(ring, text)
    if letter == "X":
        return ring.parse_element(text)
    return formats.parse_morphism(ring, text, mode)


def _human(result, payload: dict) -> str:
    """A morphism's literal, or one line per part of a construction, each
    labelled with its key in the payload."""
    if not isinstance(result, tuple):
        return result.literal
    return "\n".join(f"{key} {part.literal}" for key, part in zip(payload, result))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_abs < 1:
            parser.error(f"--max-abs must be at least 1, got {args.max_abs}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    command = _COMMANDS[args.command]
    try:
        ring = ring_from_literal(args.ring)
        operands = [_operand(x, getattr(args, x), ring, args.mode) for x in command.operands]
        operation = globals()[command.operation]
        if command.codec is None:
            payload, human, code = operation(args, ring, *operands)
        else:
            result = operation(*operands)
            payload = getattr(formats, command.codec)(result)
            human, code = _human(result, payload), 0
    except (IdealCatError, MemoryError) as exc:
        code = 2 if isinstance(exc, DoesNotExist) else 1
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        if not args.json:
            print(f"error: {message}", file=sys.stderr)
            return code
        payload = {"error": {"type": type(exc).__name__, "message": message}}
    try:
        print(json.dumps(payload, separators=(",", ":")) if args.json else human)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
    except BrokenPipeError:
        # the reader has gone (`| head -1`): stdout to devnull, so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
