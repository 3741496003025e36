"""Exact arithmetic backends: the integers, the integers modulo n, and
univariate polynomials over the rationals.

A ring object carries the arithmetic for raw element values (int for the
integer backends, Poly for polynomials) and owns the normalization
choices: canonical associates are nonnegative integers, monic polynomials,
and over Z_n the least residue dividing the modulus. Descriptors compare
structurally, so two ModularRing(6) instances are interchangeable.

Everything here is a pure function over immutable values; there is no
interior mutation anywhere in this module.
"""

from __future__ import annotations

import math

from .errors import InfiniteObjectClass, ListingTooLarge, ParseError
from .poly import MAX_LITERAL_DEGREE, Poly, parse_poly

RingElement = int | Poly

# The largest modulus whose ideals ModularRing.ideal_generators lists. The
# divisors of n are found by trial division up to sqrt(n), about 0.05 s at the
# limit; above it the request is refused with ListingTooLarge before anything
# is divided.
MAX_OBJECT_MODULUS = 10**12


def _decimal_digits(a: int) -> int:
    """The number of decimal digits of |a|, without str(), which refuses
    more than sys.get_int_max_str_digits() of them."""
    m = abs(a)
    # 0.30102999 < log10(2), so 10^k <= m; the loop adds the one or two digits short
    k = (max(m.bit_length(), 1) - 1) * 30102999 // 10**8
    power = 10 ** (k + 1)
    while power <= m:
        k, power = k + 1, power * 10
    return k + 1


class Ring:
    """Arithmetic backend descriptor; subclasses fix the element type.

    ``characteristic`` is n over Z_n (a finite ring) and 0 over the domains.
    A subclass with its own ``__init__`` calls ``Ring.__init__`` once the
    fields ``_key`` reads are set: the hash is computed there, once.
    """

    is_domain: bool = True
    characteristic: int = 0
    parenthesized_fractions: bool = False

    def __init__(self):
        self._hash = hash(self._key())  # every Ideal hash, so every Morphism hash, reads it

    def _key(self) -> tuple:
        return (type(self).__name__,)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Ring) and self._key() == other._key())

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __str__(self) -> str:
        return self.literal

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def gcd(self, a, b):
        """Canonical-associate gcd by Euclid's algorithm; gcd(0, 0) = 0."""
        while not self.is_zero(b):
            a, b = b, self.div_rem(a, b)[1]
        return self.canonical(a)

    def lcm(self, a, b):
        if self.is_zero(a) or self.is_zero(b):
            return self.zero
        return self.canonical(self.exact_div(self.mul(a, b), self.gcd(a, b)))

    def annihilator(self, c):
        """Canonical generator of {x : x*c = 0}; over a domain <1> or <0>."""
        return self.one if self.is_zero(c) else self.zero

    def ideal_generators(self) -> list:
        """The canonical generators of all ideals, sorted; finite rings only."""
        raise InfiniteObjectClass(f"{self} has infinitely many ideals")

    def format_element(self, a) -> str:
        """The literal of a, or a ParseError where parse_element would refuse
        it: str() and int() share sys.get_int_max_str_digits()."""
        try:
            return str(a)
        except ValueError:
            raise ParseError(f"{self} element with too many digits for a literal") from None

    def describe_element(self, a) -> str:
        """The literal of a, or where format_element refuses it a short
        description; error messages render elements by this, which never raises."""
        try:
            return self.format_element(a)
        except ParseError:
            return f"an integer of {_decimal_digits(a)} digits"


class IntegerRing(Ring):
    """Arbitrary-precision integers; canonical associates are nonnegative."""

    zero = 0
    one = 1

    @property
    def literal(self) -> str:
        return "z"

    def coerce(self, value) -> int:
        if type(value) is int:  # not bool, which would render as True
            return value
        raise TypeError(f"not an integer element: {value!r}")

    def add(self, a: int, b: int) -> int:
        return a + b

    def neg(self, a: int) -> int:
        return -a

    def mul(self, a: int, b: int) -> int:
        return a * b

    def is_zero(self, a: int) -> bool:
        return a == 0

    def canonical(self, a: int) -> int:
        return abs(a)

    def canonical_unit(self, a: int) -> int:
        return -1 if a < 0 else 1

    def is_unit(self, a: int) -> bool:
        return a == 1 or a == -1

    def exact_div(self, a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"{b} does not divide {a}")
        return q

    def div_rem(self, a: int, b: int) -> tuple[int, int]:
        return divmod(a, b)

    def gcd(self, a: int, b: int) -> int:
        return math.gcd(a, b)

    def divides(self, a: int, b: int) -> bool:
        return b == 0 if a == 0 else b % a == 0

    def parse_element(self, text: str) -> int:
        try:
            return int(text.strip())
        except ValueError:
            raise ParseError(f"bad integer literal {text!r}") from None

    def random_element(self, rng, max_abs: int, max_degree: int) -> int:
        return rng.randint(-max_abs, max_abs)


class ModularRing(Ring):
    """Residues modulo n, stored reduced into [0, n); not a domain."""

    is_domain = False

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = self.characteristic = modulus
        self.zero = 0
        self.one = 1
        super().__init__()

    def _key(self) -> tuple:
        return (type(self).__name__, self.modulus)

    def __repr__(self) -> str:
        """ModularRing(n), or with a description where str() refuses n."""
        try:
            return f"ModularRing({self.modulus})"
        except ValueError:
            return f"ModularRing(<{self.describe_element(self.modulus)}>)"

    @property
    def literal(self) -> str:
        """zmod:n, or a ParseError where n has more digits than str() renders."""
        try:
            return f"zmod:{self.modulus}"
        except ValueError:
            raise ParseError(f"{self} has a modulus too long for a literal") from None

    def __str__(self) -> str:
        """The literal, or in messages a description where str() refuses the modulus."""
        try:
            return f"zmod:{self.modulus}"
        except ValueError:
            return f"zmod:<{_decimal_digits(self.modulus)} digits>"

    def coerce(self, value) -> int:
        if type(value) is int:
            return value % self.modulus
        raise TypeError(f"not a residue: {value!r}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def is_zero(self, a: int) -> bool:
        return a == 0

    def canonical(self, a: int) -> int:
        # every residue is an associate of gcd(a, n); n itself normalizes to 0
        return math.gcd(a, self.modulus) % self.modulus

    def exact_div(self, a: int, b: int) -> int:
        # by units only, as non-unit quotients are not unique; denominators here are 1
        return a if b == 1 else (a * pow(b, -1, self.modulus)) % self.modulus

    def gcd(self, a: int, b: int) -> int:
        return math.gcd(a, b, self.modulus) % self.modulus

    def lcm(self, a: int, b: int) -> int:
        n = self.modulus
        return math.lcm(math.gcd(a, n), math.gcd(b, n)) % n

    def annihilator(self, c: int) -> int:
        return self.modulus // math.gcd(c, self.modulus) % self.modulus

    def divides(self, a: int, b: int) -> bool:
        # r*a = b (mod n) is solvable exactly when gcd(a, n) divides b
        return b % math.gcd(a, self.modulus) == 0

    def ideal_generators(self) -> list[int]:
        """The divisors of n, paired d with n / d up to sqrt(n); n is 0.
        n above MAX_OBJECT_MODULUS raises ListingTooLarge."""
        n = self.modulus
        if n > MAX_OBJECT_MODULUS:
            raise ListingTooLarge(f"{self} has a modulus above the limit "
                                  f"{MAX_OBJECT_MODULUS} for listing its ideals")
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return sorted({d % n for s in small for d in (s, n // s)})

    def parse_element(self, text: str) -> int:
        try:
            return int(text.strip()) % self.modulus
        except ValueError:
            raise ParseError(f"bad residue literal {text!r}") from None


class RationalPolynomialRing(Ring):
    """Polynomials over the exact rationals; canonical associates are monic."""

    zero = Poly()
    one = Poly((1,))
    parenthesized_fractions = True

    @property
    def literal(self) -> str:
        return "qpoly"

    def coerce(self, value) -> Poly:
        if isinstance(value, Poly):
            return value
        if type(value) is int:
            return Poly.const(value)
        from fractions import Fraction  # loaded already if value is one

        if type(value) is Fraction:
            return Poly.const(value)
        raise TypeError(f"not a polynomial element: {value!r}")

    def add(self, a: Poly, b: Poly) -> Poly:
        return a + b

    def neg(self, a: Poly) -> Poly:
        return -a

    def mul(self, a: Poly, b: Poly) -> Poly:
        return a * b

    def is_zero(self, a: Poly) -> bool:
        return a.is_zero

    def canonical(self, a: Poly) -> Poly:
        return a.monic()

    def canonical_unit(self, a: Poly) -> Poly:
        """The leading coefficient as a constant, built from the int content."""
        if a.is_zero:
            return self.one
        return Poly.from_pairs([(a._cn * a._ic[-1], a._cd)])

    def is_unit(self, a: Poly) -> bool:
        return a.degree == 0

    def exact_div(self, a: Poly, b: Poly) -> Poly:
        q, r = divmod(a, b)
        if not r.is_zero:
            raise ValueError(f"{b} does not divide {a}")
        return q

    def div_rem(self, a: Poly, b: Poly) -> tuple[Poly, Poly]:
        return divmod(a, b)

    def divides(self, a: Poly, b: Poly) -> bool:
        return b.is_zero if a.is_zero else (b % a).is_zero

    def parse_element(self, text: str) -> Poly:
        return parse_poly(text)

    def format_element(self, a: Poly) -> str:
        if a.degree > MAX_LITERAL_DEGREE:
            raise ParseError(f"degree {a.degree} is above the literal limit {MAX_LITERAL_DEGREE}")
        return super().format_element(a)

    def describe_element(self, a: Poly) -> str:
        try:
            return self.format_element(a)
        except ParseError:
            return f"a polynomial of degree {a.degree}"

    def random_element(self, rng, max_abs: int, max_degree: int) -> Poly:
        # coefficients come from fixed ranges; max_abs bounds integers only
        degree = rng.randint(0, max_degree)
        return Poly.from_pairs([(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)])


INTEGERS = IntegerRing()
RATIONAL_POLYNOMIALS = RationalPolynomialRing()


def ring_from_literal(text: str) -> Ring:
    """Parse a ring literal: ``z``, ``zmod:<n>`` or ``qpoly``."""
    t = text.strip()
    if t == "z":
        return INTEGERS
    if t == "qpoly":
        return RATIONAL_POLYNOMIALS
    if t.startswith("zmod:"):
        try:
            n = int(t[len("zmod:"):])
        except ValueError:
            raise ParseError(f"bad modulus in ring literal {text!r}") from None
        if n < 2:
            raise ParseError(f"modulus must be >= 2 in ring literal {text!r}")
        return ModularRing(n)
    raise ParseError(f"unknown ring literal {text!r} (expected z, zmod:<n> or qpoly)")


def euclid_gcd(ring: Ring, a: RingElement, b: RingElement) -> RingElement:
    """Canonical-associate gcd over the domain backends; gcd(0, 0) = 0."""
    if not ring.is_domain:
        raise ValueError("euclid_gcd is defined over the domain backends only")
    return ring.gcd(a, b)


def euclid_xgcd(ring: Ring, a: RingElement, b: RingElement):
    """Extended Euclid: (g, u, v) with u*a + v*b = g, g the canonical gcd."""
    if not ring.is_domain:
        raise ValueError("euclid_xgcd is defined over the domain backends only")
    r0, r1 = a, b
    s0, s1 = ring.one, ring.zero
    t0, t1 = ring.zero, ring.one
    while not ring.is_zero(r1):
        q, rem = ring.div_rem(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, ring.sub(s0, ring.mul(q, s1))
        t0, t1 = t1, ring.sub(t0, ring.mul(q, t1))
    if ring.is_zero(r0):
        return ring.zero, s0, t0
    u = ring.canonical_unit(r0)
    return ring.exact_div(r0, u), ring.exact_div(s0, u), ring.exact_div(t0, u)


def divides(ring: Ring, a: RingElement, b: RingElement) -> bool:
    """True when b = r*a for some ring element r (modulo n over Z_n)."""
    return ring.divides(a, b)


def canonical_generator(ring: Ring, gens) -> RingElement:
    """Collapse a generator list to the canonical principal generator.

    Folds the ring's canonical gcd, 0 for the empty list; over Z_n that
    gcd takes in the modulus, so the result divides n and n normalizes to 0.
    """
    g = ring.zero
    for x in gens:
        g = ring.gcd(g, ring.coerce(x))
    return g


def combination_witness(ring: Ring, gens) -> list:
    """Coefficients c_i with sum(c_i * g_i) = canonical_generator(ring, gens).

    Certifies constructively that the canonical generator is a ring
    combination of the given generators. Over Z_n the witness is computed on
    integer lifts together with the modulus, then reduced.
    """
    gens = [ring.coerce(g) for g in gens]
    n = ring.characteristic
    if n:
        lifted = _fold_witness(INTEGERS, gens + [n])
        return [c % n for c in lifted[:-1]]
    return _fold_witness(ring, gens)


def _fold_witness(ring: Ring, gens: list) -> list:
    coeffs: list = []
    g = ring.zero
    for x in gens:
        if not coeffs:
            u = ring.canonical_unit(x)
            g = ring.exact_div(x, u)
            coeffs = [ring.exact_div(ring.one, u)]
        else:
            g2, u, v = euclid_xgcd(ring, g, x)
            coeffs = [ring.mul(u, c) for c in coeffs] + [v]
            g = g2
    return coeffs
