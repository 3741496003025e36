"""Dense univariate polynomials with exact rational coefficients, computed
fraction-free.

A nonzero polynomial is stored as its content cn/cd, a reduced pair of
ints with cd > 0, times a primitive integer polynomial P: the coefficients
of P, low degree first, are ints with gcd 1, no trailing zero and a
positive leading one. That split is unique, so equality and hashing
compare (P, cn, cd) directly; the zero polynomial is ((), 0, 1). Sums and
products are integer convolutions or scalings of P plus int and
``math.gcd`` work on the content: a product of primitive polynomials is
primitive (Gauss's lemma), so a product reduces only its contents,
crosswise (gcd(an, bd) and gcd(bn, ad), never a gcd of the product), and a
sum takes the gcd of the two content denominators first. Division is
integer pseudo-division (Knuth, TAOCP vol. 2, Algorithm 4.6.1R), and a
degree-0 divisor only rescales the content. Every remainder is taken back
to its primitive part, so Euclid's algorithm over ``divmod`` runs as the
primitive polynomial remainder sequence (Collins 1967; Brown 1971) and its
integer coefficients do not grow.

``coeffs`` is the coefficient tuple as `fractions.Fraction` values, low
degree first with no trailing zeros, so the zero polynomial is the empty
tuple; it is computed on first use. ``leading``, ``coefficient`` and
``evaluate`` also answer in `fractions.Fraction`. These four are the only
places that import `fractions` (with `decimal` behind it), so loading this
module does not. ``Poly.from_pairs`` builds a polynomial from (numerator,
denominator) int pairs without any Fraction, and ``Poly(...)`` and
``Poly.const`` read an int as the pair (int, 1). Values are immutable by
convention; all arithmetic returns fresh polynomials, making them safe to
share across threads.

The text form is dense with explicit coefficients, highest degree first:
``3/2x^2-1x+5`` denotes (3/2)x^2 - x + 5. The parser also accepts omitted
unit coefficients (``x^2-x``) and explicit unit denominators (``5/1``);
the formatter always emits the numeral and omits unit denominators. A
literal may not name a degree above MAX_LITERAL_DEGREE, since a dense
polynomial of that degree is built from it.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable

from .errors import ParseError

if TYPE_CHECKING:
    from fractions import Fraction as Q

_TERM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?)?(x(?:\^(\d+))?)?")

MAX_LITERAL_DEGREE = 4096


def _pair(value) -> tuple[int, int]:
    """value as a reduced (numerator, denominator) pair: (value, 1) for an
    int, else through `fractions.Fraction` (a Fraction, a str, a float)."""
    if type(value) is int:
        return value, 1
    from fractions import Fraction

    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator, value.denominator


class Poly:
    """A polynomial over the rationals: content ``_cn/_cd`` times the
    primitive integer polynomial ``_ic``.

    Invariant: ``_ic`` is empty with content 0/1 for the zero polynomial;
    otherwise its ints have gcd 1 and the last is positive, and
    gcd(_cn, _cd) == 1 with ``_cd > 0`` and ``_cn != 0``.
    """

    __slots__ = ("_ic", "_cn", "_cd", "_coeffs")

    def __init__(self, coeffs: Iterable[Q | int] = ()):
        p = Poly.from_pairs(map(_pair, coeffs))
        self._ic, self._cn, self._cd, self._coeffs = p._ic, p._cn, p._cd, None

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> Poly:
        """The polynomial whose coefficients, low degree first, are n/d for
        the int pairs (n, d), d > 0; the pairs need not be in lowest terms."""
        pairs = list(pairs)
        den = lcm(*(d for n, d in pairs if n))
        return _normalized([n * (den // d) if n else 0 for n, d in pairs], 1, den)

    @classmethod
    def const(cls, value) -> Poly:
        n, d = _pair(value)
        return _poly((1,), n, d) if n else _ZERO

    @property
    def coeffs(self) -> tuple[Q, ...]:
        if self._coeffs is None:
            from fractions import Fraction

            cn, cd = self._cn, self._cd
            self._coeffs = tuple(Fraction(cn * a, cd) for a in self._ic)
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._ic

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._ic) - 1

    @property
    def leading(self) -> Q:
        from fractions import Fraction

        return Fraction(self._cn * self._ic[-1], self._cd) if self._ic else Fraction(0)

    def coefficient(self, k: int) -> Q:
        from fractions import Fraction

        return self.coeffs[k] if 0 <= k < len(self._ic) else Fraction(0)

    def monic(self) -> Poly:
        if not self._ic:
            return self
        lead = self._ic[-1]
        if self._cn == 1 and self._cd == lead:
            return self
        return _poly(self._ic, 1, lead)

    def evaluate(self, point: Q | int) -> Q:
        from fractions import Fraction

        acc = 0
        for a in reversed(self._ic):
            acc = acc * point + a
        return Fraction(self._cn, self._cd) * acc

    def __bool__(self) -> bool:
        return bool(self._ic)

    def __add__(self, other: Poly) -> Poly:
        a, b = self._ic, other._ic
        if not a:
            return other
        if not b:
            return self
        ad, bd = self._cd, other._cd
        # an/ad*A + bn/bd*B = (fa*A + fb*B) / den over the least common denominator
        g = gcd(ad, bd)
        if g == 1:
            fa, fb, den = self._cn * bd, other._cn * ad, ad * bd
        else:
            fa, fb, den = self._cn * (bd // g), other._cn * (ad // g), ad // g * bd
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [fa * x + fb * y for x, y in zip(a, b)]
        out += [fa * x for x in a[len(b):]]
        return _normalized(out, 1, den)

    def __neg__(self) -> Poly:
        return _poly(self._ic, -self._cn, self._cd) if self._ic else self

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        a, b = self._ic, other._ic
        if not a or not b:
            return _ZERO
        # an/ad * bn/bd reduced crosswise: both contents are in lowest terms
        an, ad, bn, bd = self._cn, self._cd, other._cn, other._cd
        g, h = gcd(an, bd), gcd(bn, ad)
        cn, cd = (an // g) * (bn // h), (ad // h) * (bd // g)
        if len(a) == 1:  # a primitive constant is 1
            return _poly(b, cn, cd)
        if len(b) == 1:
            return _poly(a, cn, cd)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _poly(tuple(out), cn, cd)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        b = other._ic
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self._ic
        if len(a) < len(b):
            return _ZERO, self
        an, ad, bn, bd = self._cn, self._cd, other._cn, other._cd
        if len(b) == 1:
            # (an/ad) / (bn/bd) reduced crosswise, the sign moved up
            g, h = gcd(an, bn), gcd(ad, bd)
            cn, cd = (an // g) * (bd // h), (ad // h) * (bn // g)
            return (_poly(a, cn, cd) if cd > 0 else _poly(a, -cn, -cd)), _ZERO
        # Pseudo-division of A by B, scaling the remainder by the leading
        # coefficient lead only when lead does not divide its top term:
        # scale*A = quot*B + rem.
        rem = list(a)
        lead, n = b[-1], len(b) - 1
        quot = [0] * (len(a) - n)
        scale = 1
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + n]
            if top % lead:
                rem = [lead * r for r in rem]
                quot = [lead * q for q in quot]
                scale *= lead
                c = top
            else:
                c = top // lead
            quot[k] = c
            if c:
                for i, d in enumerate(b):
                    rem[k + i] -= c * d
        del rem[n:]
        # self = (an/ad) / (bn/bd) * (quot/scale) * other + (an/ad) * rem / scale
        quotient = _normalized(quot, an * bd, ad * bn * scale)
        return quotient, _normalized(rem, an, ad * scale)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self._ic == other._ic
                and self._cn == other._cn and self._cd == other._cd)

    def __hash__(self) -> int:
        return hash((self._ic, self._cn, self._cd))

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _poly(ic: tuple[int, ...], cn: int, cd: int) -> Poly:
    """The polynomial (cn/cd) * ic; ic must already be primitive with a
    positive leading coefficient, and cn/cd nonzero in lowest terms with
    cd > 0 (the zero polynomial alone is ((), 0, 1))."""
    p = object.__new__(Poly)
    p._ic, p._cn, p._cd, p._coeffs = ic, cn, cd, None
    return p


def _normalized(ints: list[int], num: int, den: int) -> Poly:
    """The polynomial (num/den) * ints, for any integer list ints and any
    nonzero num and den."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
    num *= g
    h = gcd(num, den)
    if den < 0:
        h = -h
    return _poly(tuple(ints), num // h, den // h)


_ZERO = _poly((), 0, 1)


def format_poly(p: Poly) -> str:
    ic = p._ic
    if not ic:
        return "0"
    cn, cd = p._cn, p._cd
    parts: list[str] = []
    for d in range(len(ic) - 1, -1, -1):
        a = ic[d]
        if not a:
            continue
        g = gcd(a, cd)  # cn is prime to cd, so (cn*a)/cd reduces by g alone
        num, den = cn * (a // g), cd // g
        sign = "-" if num < 0 else ("+" if parts else "")
        coeff = str(abs(num))
        if den != 1:
            coeff += f"/{den}"
        var = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
        parts.append(f"{sign}{coeff}{var}")
    return "".join(parts)


def _degree(exp: str, text: str) -> int:
    digits = exp.lstrip("0") or "0"
    if len(digits) > len(str(MAX_LITERAL_DEGREE)) or int(digits) > MAX_LITERAL_DEGREE:
        raise ParseError(f"degree {digits} in polynomial literal {text[:40]!r} is above "
                         f"the limit {MAX_LITERAL_DEGREE}")
    return int(digits)


def parse_poly(text: str) -> Poly:
    """Parse the dense text form; a degree above MAX_LITERAL_DEGREE is a
    ParseError."""
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty polynomial literal")
    if compact == "0":
        return Poly()
    coeffs: dict[int, tuple[int, int]] = {}  # degree -> (num, den), summed exactly
    pos = 0
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"bad polynomial literal {text!r} at {compact[pos:]!r}")
        sign, num, den, xpart, exp = m.groups()
        if num is None and xpart is None:
            raise ParseError(f"bad polynomial literal {text!r} at {compact[pos:]!r}")
        try:  # int() refuses more than sys.get_int_max_str_digits() digits
            c_num = int(num) if num is not None else 1
            c_den = int(den) if den is not None else 1
        except ValueError:
            raise ParseError(f"too many digits in polynomial literal {text[:40]!r}") from None
        if c_den == 0:
            raise ParseError(f"zero denominator in polynomial literal {text!r}")
        if sign == "-":
            c_num = -c_num
        deg = 0 if xpart is None else (1 if exp is None else _degree(exp, text))
        if deg in coeffs:  # reduced, so repeated terms do not grow the pair
            n, d = coeffs[deg]
            c_num, c_den = n * c_den + c_num * d, d * c_den
            g = gcd(c_num, c_den)
            c_num, c_den = c_num // g, c_den // g
        coeffs[deg] = (c_num, c_den)
        pos = m.end()
    top = max(coeffs)
    return Poly.from_pairs(coeffs.get(d, (0, 1)) for d in range(top + 1))
