"""Reduced fractions over a ring backend, used as morphism multipliers.

Over the domain backends a fraction num/den is kept in the unique reduced
form: gcd(num, den) is a unit, the denominator is the canonical associate
(positive integer, monic polynomial) and zero is exactly 0/1. Over Z_n a
fraction is a residue k/1: there are no genuine fractions over a
non-domain, and the ``Fraction`` constructor refuses any other denominator
with FractionOverNonDomain, so no code past it tests a Z_n denominator.

fraction_reduce skips work that cannot change the result: over a
denominator of 1 it returns at once, when either side is a unit (a
nonzero constant polynomial, or +-1) the gcd is a unit and is not
computed, and a gcd of 1 or a denominator that is already canonical
divides nothing. Over a domain, ``*`` and ``+`` of two reduced fractions
never call it (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1): a product
reduces crosswise, by gcd(a, d) and gcd(c, b) on the factors of
(a/b)(c/d) and never by a gcd of the product, and a sum takes g =
gcd(b, d) first; coprime denominators need no further gcd, and otherwise
only g can share a factor with the new numerator. Both results keep a
canonical denominator without a unit step, since quotients and products
of canonical associates are canonical. Over Z_n, ``+`` and ``*`` skip
fraction_reduce and the ring's methods: they are one integer sum or
product modulo n. ``+``, ``*`` and ``==`` test the two rings for identity
before calling the ring's equality.

Text form: ``p`` or ``p/q``. A ring whose element literals contain ``/``
(qpoly's rational coefficients) sets ``parenthesized_fractions``, and
then both parts are parenthesized: ``(x+1)/(x-1)``.
"""

from __future__ import annotations

import re
from typing import Callable

from .errors import FractionOverNonDomain, ParseError, RingMismatch, ZeroDenominator
from .rings import Ring, RingElement

_QPOLY_FRACTION = re.compile(r"\((?P<num>[^()]*)\)\s*/\s*\((?P<den>[^()]*)\)")


class Fraction:
    """A reduced ring fraction. Construct via fraction_reduce or from_element.
    Over Z_n the denominator is 1; any other raises FractionOverNonDomain."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, num: RingElement, den: RingElement):
        if den != 1 and not ring.is_domain:  # a Z_n fraction pays one int comparison
            raise FractionOverNonDomain(f"denominator {ring.describe_element(den)} over {ring}")
        self.ring = ring
        self.num = num
        self.den = den

    @classmethod
    def from_element(cls, ring: Ring, value) -> Fraction:
        return cls(ring, ring.coerce(value), ring.one)

    @classmethod
    def zero(cls, ring: Ring) -> Fraction:
        return cls(ring, ring.zero, ring.one)

    @classmethod
    def one(cls, ring: Ring) -> Fraction:
        return cls(ring, ring.one, ring.one)

    @property
    def is_zero(self) -> bool:
        return self.ring.is_zero(self.num)

    @property
    def is_one(self) -> bool:
        return self.num == self.ring.one and self.den == self.ring.one

    @property
    def is_integral(self) -> bool:
        return self.den == self.ring.one

    def _require_same_ring(self, other: Fraction) -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"fractions over {self.ring} and {other.ring}")

    def __add__(self, other: Fraction) -> Fraction:
        r = self.ring
        if other.ring is not r:
            self._require_same_ring(other)
        n = r.characteristic
        if n:  # Z_n residues
            return Fraction(r, (self.num + other.num) % n, 1)
        return _sum(r, self.num, self.den, other.num, other.den)

    def __neg__(self) -> Fraction:
        return Fraction(self.ring, self.ring.neg(self.num), self.den)

    def __sub__(self, other: Fraction) -> Fraction:
        return self + (-other)

    def __mul__(self, other: Fraction) -> Fraction:
        r = self.ring
        if other.ring is not r:
            self._require_same_ring(other)
        n = r.characteristic
        if n:  # Z_n residues
            return Fraction(r, self.num * other.num % n, 1)
        return _product(r, self.num, self.den, other.num, other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fraction)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))  # equal fractions share a ring

    def __repr__(self) -> str:
        """The ring and the literal, each described where too long to print."""
        return f"Fraction({self.ring}, {str(self)!r})"

    def __str__(self) -> str:
        """The literal, or in messages a description where the literal is refused."""
        return _render(self, self.ring.describe_element)


def _sum(r: Ring, a, b, c, d) -> Fraction:
    """a/b + c/d for reduced fractions over a domain."""
    # a/b + c/d = (a*(d/g) + c*(b/g)) / (b*d/g) with g = gcd(b, d); only g
    # can share a factor with that numerator (Henrici 1956). A zero sum
    # has b = d, so it comes out as 0/1
    one = r.one
    g = one if b == one or d == one else r.gcd(b, d)
    if g == one:
        return Fraction(r, r.add(r.mul(a, d), r.mul(c, b)), r.mul(b, d))
    b, d = r.exact_div(b, g), r.exact_div(d, g)
    num = r.add(r.mul(a, d), r.mul(c, b))
    h = r.gcd(num, g)
    if h != one:
        num, g = r.exact_div(num, h), r.exact_div(g, h)
    return Fraction(r, num, r.mul(r.mul(b, d), g))


def _product(r: Ring, a, b, c, d) -> Fraction:
    """(a/b) * (c/d) for reduced fractions over a domain, reduced crosswise:
    a is prime to b and c to d, so gcd(a, d) and gcd(c, b) are every common
    factor (Henrici 1956)."""
    if r.is_zero(a) or r.is_zero(c):
        return Fraction(r, r.zero, r.one)
    one, unit = r.one, r.is_unit
    if d != one and not unit(a):
        g = r.gcd(a, d)
        if g != one:
            a, d = r.exact_div(a, g), r.exact_div(d, g)
    if b != one and not unit(c):
        g = r.gcd(c, b)
        if g != one:
            c, b = r.exact_div(c, g), r.exact_div(b, g)
    return Fraction(r, r.mul(a, c), r.mul(b, d))


def fraction_reduce(ring: Ring, num, den) -> Fraction:
    """Build the reduced fraction num/den; the unit moves into the numerator."""
    num = ring.coerce(num)
    den = ring.coerce(den)
    if ring.is_zero(den):
        raise ZeroDenominator(f"zero denominator over {ring}")
    one = ring.one
    if den == one or not ring.is_domain:  # the constructor refuses a Z_n den != 1
        return Fraction(ring, num, den)
    if ring.is_zero(num):
        return Fraction(ring, ring.zero, one)
    if not (ring.is_unit(num) or ring.is_unit(den)):
        g = ring.gcd(num, den)
        if g != one:
            num = ring.exact_div(num, g)
            den = ring.exact_div(den, g)
    u = ring.canonical_unit(den)
    if u == one:
        return Fraction(ring, num, den)
    return Fraction(ring, ring.exact_div(num, u), ring.exact_div(den, u))


def format_fraction(f: Fraction) -> str:
    return _render(f, f.ring.format_element)


def _render(f: Fraction, element: Callable) -> str:
    """``p`` or ``p/q``, with num and den rendered by ``element``."""
    if f.is_integral:
        return element(f.num)
    if f.ring.parenthesized_fractions:
        return f"({element(f.num)})/({element(f.den)})"
    return f"{element(f.num)}/{element(f.den)}"


def parse_fraction(ring: Ring, text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (parenthesized parts for qpoly)."""
    t = text.strip()
    if not t:
        raise ParseError("empty fraction literal")
    if ring.parenthesized_fractions:
        if t.startswith("("):
            m = _QPOLY_FRACTION.fullmatch(t)
            if m is None:
                raise ParseError(f"bad polynomial fraction literal {text!r}")
            return fraction_reduce(
                ring, ring.parse_element(m.group("num")), ring.parse_element(m.group("den"))
            )
        return Fraction.from_element(ring, ring.parse_element(t))
    if "/" in t:
        num_text, den_text = t.split("/", 1)
        return fraction_reduce(
            ring, ring.parse_element(num_text), ring.parse_element(den_text)
        )
    return Fraction.from_element(ring, ring.parse_element(t))
