"""Reference oracle for idealcat.poly: the dense polynomial with
`fractions.Fraction` coefficients that idealcat.poly used before it went
fraction-free. The tests check the integer-content implementation against
it; nothing in the library imports it.

Coefficients are stored low degree first as `fractions.Fraction` values
with no trailing zeros, so the zero polynomial is the empty tuple and the
leading coefficient is otherwise nonzero. Values are immutable by
convention; all arithmetic returns fresh polynomials, making them safe to
share across threads.

The text form is dense with explicit coefficients, highest degree first:
``3/2x^2-1x+5`` denotes (3/2)x^2 - x + 5. The parser also accepts omitted
unit coefficients (``x^2-x``) and explicit unit denominators (``5/1``);
the formatter always emits the numeral and omits unit denominators.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from typing import Iterable

from idealcat.errors import ParseError

_TERM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?)?(x(?:\^(\d+))?)?")


class Poly:
    """A polynomial over the rationals.

    Invariant: ``coeffs`` carries no trailing zero, so ``()`` is the unique
    zero polynomial and ``coeffs[-1] != 0`` otherwise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Q | int] = ()):
        cs = [c if isinstance(c, Q) else Q(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> Poly:
        return cls((Q(value),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Q:
        return self.coeffs[-1] if self.coeffs else Q(0)

    def coefficient(self, k: int) -> Q:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q(0)

    def monic(self) -> Poly:
        if self.is_zero or self.leading == 1:
            return self
        lead = self.leading
        return Poly(c / lead for c in self.coeffs)

    def evaluate(self, point: Q | int) -> Q:
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(), self
        rem = list(self.coeffs)
        den = other.coeffs
        inv = 1 / den[-1]
        quot = [Q(0)] * (len(rem) - len(den) + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + len(den) - 1] * inv
            quot[k] = c
            if c:
                for i, d in enumerate(den):
                    rem[k + i] -= c * d
        return Poly(quot), Poly(rem[: len(den) - 1])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for d in range(p.degree, -1, -1):
        c = p.coefficient(d)
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        coeff = str(mag.numerator)
        if mag.denominator != 1:
            coeff += f"/{mag.denominator}"
        var = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
        parts.append(f"{sign}{coeff}{var}")
    return "".join(parts)


def parse_poly(text: str) -> Poly:
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty polynomial literal")
    if compact == "0":
        return Poly()
    coeffs: dict[int, Q] = {}
    pos = 0
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"bad polynomial literal {text!r} at {compact[pos:]!r}")
        sign, num, den, xpart, exp = m.groups()
        if num is None and xpart is None:
            raise ParseError(f"bad polynomial literal {text!r} at {compact[pos:]!r}")
        if den is not None and int(den) == 0:
            raise ParseError(f"zero denominator in polynomial literal {text!r}")
        c = Q(int(num) if num is not None else 1, int(den) if den is not None else 1)
        if sign == "-":
            c = -c
        deg = 0 if xpart is None else (1 if exp is None else int(exp))
        coeffs[deg] = coeffs.get(deg, Q(0)) + c
        pos = m.end()
    top = max(coeffs)
    return Poly(coeffs.get(d, Q(0)) for d in range(top + 1))
