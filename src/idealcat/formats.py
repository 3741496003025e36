"""Text literals and JSON codecs for ideals, morphisms and results.

Ideal literal: ``<g1,g2,...>`` with generators normalized on parse, so
``<4,6>`` over z parses to the ideal displayed as ``<2>``. Morphism
literal: ``rho(<a>;<s>;<b>)`` with ``<s>`` a multiplier literal ``p`` or
``p/q``. JSON keeps ideals as {"ring": ..., "gen": ...} and morphisms as
{"dom": ..., "mult": ..., "cod": ...}; both parse back to equal values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .constructions import (
    Biproduct,
    CokernelPair,
    Factorization,
    KernelPair,
    Splitting,
)
from .errors import ParseError, RingMismatch
from .fracfield import format_fraction, parse_fraction
from .ideals import FULL, HomSet, Ideal, Morphism, _check_mode, _valid_morphism, ideal_new
from .rings import Ring, ring_from_literal

if TYPE_CHECKING:  # the verifier loads only when verify or oracle runs
    from .verifier import FunctionTable, Report


def parse_ideal(ring: Ring, text: str) -> Ideal:
    t = text.strip()
    if not (t.startswith("<") and t.endswith(">")):
        raise ParseError(f"ideal literal must look like <g1,g2,...>, got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        return ideal_new(ring)
    return ideal_new(ring, [ring.parse_element(part) for part in inner.split(",")])


def format_ideal(A: Ideal) -> str:
    return A.literal


def parse_morphism(ring: Ring, text: str, mode: str = FULL) -> Morphism:
    t = text.strip()
    if not (t.startswith("rho(") and t.endswith(")")):
        raise ParseError(f"morphism literal must look like rho(a;s;b), got {text!r}")
    parts = t[len("rho("):-1].split(";")
    if len(parts) != 3:
        raise ParseError(f"morphism literal needs three ;-separated parts, got {text!r}")
    dom = ideal_new(ring, [ring.parse_element(parts[0])])
    cod = ideal_new(ring, [ring.parse_element(parts[2])])
    s = parse_fraction(ring, parts[1])
    _check_mode(mode)
    return _valid_morphism(dom, cod, s, mode)


def format_morphism(f: Morphism) -> str:
    return f.literal


def ideal_to_json(A: Ideal) -> dict:
    return {"ring": A.ring.literal, "gen": A.ring.format_element(A.generator)}


def _fields(obj, shape: dict) -> list:
    """The payload's values for ``shape``'s keys, each of the given type."""
    if not isinstance(obj, dict) or any(not isinstance(obj.get(k), t) for k, t in shape.items()):
        fields = ", ".join(f"{k}: {t.__name__}" for k, t in shape.items())
        raise ParseError(f"expected a JSON object {{{fields}}}, got {obj!r}")
    return [obj[k] for k in shape]


def ideal_from_json(obj: dict) -> Ideal:
    literal, gen = _fields(obj, {"ring": str, "gen": str})
    ring = ring_from_literal(literal)
    return ideal_new(ring, [ring.parse_element(gen)])


def morphism_to_json(f: Morphism) -> dict:
    return {
        "dom": ideal_to_json(f.dom),
        "mult": format_fraction(f.multiplier),
        "cod": ideal_to_json(f.cod),
    }


def morphism_from_json(obj: dict, mode: str = FULL) -> Morphism:
    dom, mult, cod = _fields(obj, {"dom": dict, "mult": str, "cod": dict})
    dom, cod = ideal_from_json(dom), ideal_from_json(cod)
    if dom.ring != cod.ring:
        raise RingMismatch("morphism endpoints over different rings")
    s = parse_fraction(dom.ring, mult)
    _check_mode(mode)
    return _valid_morphism(dom, cod, s, mode)


def homset_to_json(hs: HomSet) -> dict:
    return {
        "dom": ideal_to_json(hs.dom),
        "cod": ideal_to_json(hs.cod),
        "base": format_fraction(hs.base),
        "modulus": hs.modulus,
        "elements": (
            None
            if hs.elements is None
            else [morphism_to_json(f) for f in hs.elements]
        ),
    }


def kernel_to_json(pair: KernelPair) -> dict:
    return {"object": pair.object.literal, "inclusion": morphism_to_json(pair.inclusion)}


def cokernel_to_json(pair: CokernelPair) -> dict:
    return {"object": pair.object.literal, "projection": morphism_to_json(pair.projection)}


def biproduct_to_json(bp: Biproduct) -> dict:
    return {
        "object": bp.object.literal,
        "p1": morphism_to_json(bp.p1),
        "p2": morphism_to_json(bp.p2),
        "i1": morphism_to_json(bp.i1),
        "i2": morphism_to_json(bp.i2),
    }


def factorization_to_json(fact: Factorization) -> dict:
    return {"q": morphism_to_json(fact.epi), "j": morphism_to_json(fact.inclusion)}


def splitting_to_json(split: Splitting) -> dict:
    return {
        "object": split.object.literal,
        "retraction": morphism_to_json(split.retraction),
        "section": morphism_to_json(split.section),
    }


def tables_to_json(tables: list[FunctionTable]) -> dict:
    return {
        "count": len(tables),
        "tables": [[[str(x), str(y)] for x, y in table] for table in tables],
    }


def report_to_json(report: Report) -> dict:
    return report.to_json()
