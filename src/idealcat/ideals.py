"""Ideals as objects and multiplication maps as morphisms.

An Ideal is identified by its ring and canonical principal generator; the
generators it was built from are kept as provenance but excluded from
equality. A Morphism dom -> cod is the map x -> x*s for a canonicalized
multiplier s, stored so that morphism equality coincides with pointwise
equality of the underlying functions:

* multipliers out of the zero ideal collapse to 0;
* over Z_n with dom = <a>, a != 0, the multiplier is the least residue
  k/1 modulo n/a;
* over Z and Q[x] the multiplier is a reduced fraction, which is unique.

Over Z_n every ideal and morphism operation is a few integer operations.
Each Ideal computes n/a once, as ``_modulus`` (1 for <0>), and keeps its
hash after the first.
``ideal_new`` takes one gcd with the modulus, gcd(gens..., n) mod n;
``is_subideal`` is a % (b or n) == 0; ``image`` is <gcd(a k, n)> and
``kernel_generator`` gcd(a (n / gcd(a k, n)), n) mod n, for dom <a> and
multiplier k. A multiplier that is already a residue in [0, n/a) is kept
as it is, so compose, hom_add and hom_neg allocate the Fraction product,
sum or negation, a second Fraction only when that must be reduced, and the
Morphism: ``_raw_morphism`` is the one place a multiplier is reduced mod
n/a. ``apply`` tests membership as x % a and returns x * k % n.

Values built inside this module skip the checks of the public
constructors. ``_ideal`` is the trusted builder: it fills an Ideal's slots
from a generator its caller has made canonical (``ideal_new`` and
``image`` computed it, ``enumerate_objects`` lists the ring's own), where
``Ideal(ring, g)`` canonicalizes g once more to refuse a non-canonical one.
``_raw_morphism`` fills a Morphism's slots in the same way. Equality tests
identity first: an Ideal compares its generator and then its ring, a
Morphism its dom and cod and then its multiplier's num and den, which is
what its hash reads too. The dom/cod checks of compose and hom_add, and
the ring checks of Fraction arithmetic, also test identity before they
call an equality method.

Two multiplier universes are supported. In ``full`` mode (the default)
multipliers over the domain backends range over the fraction field, which
captures every linear map between principal ideals of a domain; ``paper``
mode restricts them to ring elements. Over Z_n the two universes coincide.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    HomMismatch,
    InfiniteObjectClass,
    InvalidMultiplier,
    ListingTooLarge,
    NotASubideal,
    NotComposable,
    NotInDomain,
    RingMismatch,
)
from .fracfield import Fraction, format_fraction, fraction_reduce
from .rings import MAX_OBJECT_MODULUS, Ring, RingElement, canonical_generator  # noqa: F401

FULL = "full"
PAPER = "paper"
MODES = (FULL, PAPER)

# The most morphisms enumerate_hom lists over Z_n; a larger hom-set is refused
# with ListingTooLarge before any Morphism is built. At the limit, `homs` takes
# about 0.5 s and 130 MB (CPython 3.11).
MAX_HOM_LISTING = 100_000

# The most composition cases an exhaustive verify over Z_n may take, the
# Sum_B (Sum_A |Hom(A, B)|)^2 calls of the verifier's composition table; a
# larger ring is refused with ListingTooLarge before any hom-set is listed.
# zmod:720 has the largest count of any n <= 720, 16,534,680, and `verify`
# takes about 40 s on it by CLI (CPython 3.11, 2-vCPU host); zmod:840 has
# 22,358,400.
MAX_VERIFY_CASES = 2 * 10**7


class _Value:
    """An immutable value: __init__, or a trusted builder of this module,
    fills each slot once, and then setting or deleting an attribute raises
    AttributeError. __reduce__ rebuilds through __init__ from its arguments,
    ``_fields``, so copy, deepcopy and pickle work despite __setattr__, and
    slots derived from them are computed afresh."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Ideal(_Value):
    """A principal ideal <generator> of its ring. The generator must be
    canonical; ideal_new normalizes any generator list. The generators it
    was built from, ``given_generators``, are provenance: equality, hash and
    repr leave them out.

    Two derived slots serve the Z_n fast path: ``_modulus``, the modulus of
    the multipliers out of the ideal (n // generator over Z_n, 1 for <0>, 0
    over the domains), and ``_hash``, filled on the first hash."""

    _fields = ("ring", "generator", "given_generators")
    __slots__ = (*_fields, "_modulus", "_hash")

    def __init__(self, ring: Ring, generator: RingElement, given_generators: tuple = ()):
        canonical = ring.canonical(generator)
        if canonical is not generator and canonical != generator:
            raise ValueError(f"{generator!r} is not a canonical generator of {ring}: "
                             "build ideals with ideal_new")
        _fill_ideal(self, ring, generator, given_generators)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.generator == other.generator and (
                self.ring is other.ring or self.ring == other.ring)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set_hash(self, hash((self.ring, self.generator)))
            return self._hash

    @property
    def is_zero(self) -> bool:
        return self.ring.is_zero(self.generator)

    @property
    def literal(self) -> str:
        return f"<{self.ring.format_element(self.generator)}>"

    def __str__(self) -> str:
        """The literal, or in messages a description where the literal is refused."""
        return f"<{self.ring.describe_element(self.generator)}>"

    def __repr__(self) -> str:
        """The fields equality compares; a generator too long for repr() is described."""
        try:
            generator = repr(self.generator)
        except ValueError:
            generator = f"<{self.ring.describe_element(self.generator)}>"
        return f"Ideal(ring={self.ring!r}, generator={generator})"


class Morphism(_Value):
    """The map x -> x * multiplier from dom to cod, multiplier canonical and
    over the ring of dom, so equality and hash read its num and den. As
    ``Ideal(ring, g)`` does, the constructor refuses what morphism_new would
    refuse (InvalidMultiplier for a map that does not send dom into cod) or
    change (ValueError for a multiplier that is not canonical)."""

    __slots__ = _fields = ("dom", "cod", "multiplier")

    def __init__(self, dom: Ideal, cod: Ideal, multiplier: Fraction):
        canonical = morphism_new(dom, cod, multiplier).multiplier
        if canonical is not multiplier and canonical != multiplier:
            raise ValueError(f"{multiplier!r} is not the canonical multiplier of a map "
                             f"{dom} -> {cod}: build morphisms with morphism_new")
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_multiplier(self, multiplier)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            s, t = self.multiplier, other.multiplier
            return ((self.dom is other.dom or self.dom == other.dom)
                    and (self.cod is other.cod or self.cod == other.cod)
                    and s.num == t.num and s.den == t.den)
        return NotImplemented

    def __hash__(self) -> int:
        s = self.multiplier
        return hash((self.dom, self.cod, s.num, s.den))

    @property
    def is_zero(self) -> bool:
        return self.multiplier.is_zero

    @property
    def literal(self) -> str:
        fmt = self.dom.ring.format_element
        return (f"rho({fmt(self.dom.generator)};{format_fraction(self.multiplier)};"
                f"{fmt(self.cod.generator)})")

    def __str__(self) -> str:
        """The literal, or in messages a description where the literal is refused."""
        desc = self.dom.ring.describe_element
        return f"rho({desc(self.dom.generator)};{self.multiplier};{desc(self.cod.generator)})"

    def __repr__(self) -> str:
        return f"Morphism(dom={self.dom!r}, cod={self.cod!r}, multiplier={self.multiplier!r})"

    def __add__(self, other: Morphism) -> Morphism:
        return hom_add(self, other)

    def __neg__(self) -> Morphism:
        return hom_neg(self)

    def __matmul__(self, other: Morphism) -> Morphism:
        return compose(self, other)


# A slot's descriptor __set__ fills that slot of a value under construction,
# past the frozen __setattr__. Bound once, it costs about 80 ns against 140 ns
# for object.__setattr__; Ideals and Morphisms are built on the Z_n hot path.
_set_ring, _set_generator, _set_given_generators = (
    Ideal.ring.__set__, Ideal.generator.__set__, Ideal.given_generators.__set__)
_set_modulus, _set_hash = Ideal._modulus.__set__, Ideal._hash.__set__
_set_dom, _set_cod, _set_multiplier = (
    Morphism.dom.__set__, Morphism.cod.__set__, Morphism.multiplier.__set__)
_new = object.__new__


def _fill_ideal(A: Ideal, ring: Ring, generator: RingElement, given_generators: tuple) -> None:
    _set_ring(A, ring)
    _set_generator(A, generator)
    _set_given_generators(A, given_generators)
    n = ring.characteristic
    _set_modulus(A, (n // generator if generator else 1) if n else 0)


def _ideal(ring: Ring, generator: RingElement, given_generators: tuple = ()) -> Ideal:
    """The Ideal <generator>, trusting the caller that the generator is
    canonical: Ideal.__init__ without its check."""
    A = _new(Ideal)
    _fill_ideal(A, ring, generator, given_generators)
    return A


class HomSet(NamedTuple):
    """All morphisms dom -> cod, as a cyclic description.

    The set is every ring multiple of ``base``. Over Z_n the multipliers
    live modulo ``modulus`` = n / dom.generator and ``elements`` lists each
    morphism explicitly; over the infinite backends both stay None.
    """

    dom: Ideal
    cod: Ideal
    base: Fraction
    modulus: int | None = None
    elements: tuple[Morphism, ...] | None = None


def _require_same_ring(a, b) -> None:
    if a.ring != b.ring:
        raise RingMismatch(f"mixed rings {a.ring} and {b.ring}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def ideal_new(ring: Ring, gens=()) -> Ideal:
    """Normalize a generator list into the ideal it generates."""
    gens = tuple(ring.coerce(g) for g in gens)
    n = ring.characteristic
    if n:  # Z_n: one gcd with the modulus
        return _ideal(ring, math.gcd(*gens, n) % n, gens)
    return _ideal(ring, canonical_generator(ring, gens), gens)


def contains_element(A: Ideal, x: RingElement) -> bool:
    return A.ring.divides(A.generator, A.ring.coerce(x))


def is_subideal(A: Ideal, B: Ideal) -> bool:
    """A is contained in B exactly when B's generator divides A's."""
    _require_same_ring(A, B)
    n = A.ring.characteristic
    if n:  # Z_n: canonical generators divide n, and <0> holds 0 only
        return not A.generator % (B.generator or n)
    return B.ring.divides(B.generator, A.generator)


def intersect(A: Ideal, B: Ideal) -> Ideal:
    _require_same_ring(A, B)
    return ideal_new(A.ring, [A.ring.lcm(A.generator, B.generator)])


def ideal_sum(A: Ideal, B: Ideal) -> Ideal:
    _require_same_ring(A, B)
    return ideal_new(A.ring, [A.generator, B.generator])


def _as_fraction(ring: Ring, value) -> Fraction:
    if isinstance(value, Fraction):
        if value.ring != ring:
            raise RingMismatch(f"multiplier over {value.ring}, ideals over {ring}")
        # a caller's fraction may be unreduced, and Morphism equality reads num and den
        return value if value.den == ring.one else fraction_reduce(ring, value.num, value.den)
    return Fraction.from_element(ring, value)


def _multiplier_sends_into(dom: Ideal, cod: Ideal, s: Fraction) -> bool:
    ring = dom.ring
    if dom.is_zero:
        return True
    if not ring.divides(s.den, dom.generator):
        return False  # s * generator must land back inside the ring
    t = ring.exact_div(ring.mul(s.num, dom.generator), s.den)
    return ring.divides(cod.generator, t)


def _raw_morphism(dom: Ideal, cod: Ideal, s: Fraction) -> Morphism:
    # canonicalizes but skips the validity check; internal fast path
    m = dom._modulus
    if m:  # Z_n: the least residue modulo n/a, which is 0 out of <0>
        if not 0 <= s.num < m:
            s = Fraction(dom.ring, s.num % m, 1)
    elif dom.is_zero:
        s = Fraction.zero(dom.ring)
    f = _new(Morphism)
    _set_dom(f, dom)
    _set_cod(f, cod)
    _set_multiplier(f, s)
    return f


def morphism_new(dom: Ideal, cod: Ideal, multiplier, mode: str = FULL) -> Morphism:
    """Build the validated, canonicalized morphism x -> x * multiplier."""
    _require_same_ring(dom, cod)
    _check_mode(mode)
    return _valid_morphism(dom, cod, _as_fraction(dom.ring, multiplier), mode)


def _valid_morphism(dom: Ideal, cod: Ideal, s: Fraction, mode: str) -> Morphism:
    """morphism_new past its argument checks, for a reduced s over the ring of
    dom and cod. The literal parsers call it with parse_fraction's result,
    which is reduced already, once they have checked the mode."""
    if mode == PAPER and not s.is_integral:
        raise InvalidMultiplier(f"{s} is not a ring element (paper mode)")
    if not _multiplier_sends_into(dom, cod, s):
        raise InvalidMultiplier(f"{s} does not map {dom} into {cod}")
    return _raw_morphism(dom, cod, s)


def zero_morphism(A: Ideal, B: Ideal) -> Morphism:
    _require_same_ring(A, B)
    return _raw_morphism(A, B, Fraction.zero(A.ring))


def identity(A: Ideal) -> Morphism:
    return _raw_morphism(A, A, Fraction.one(A.ring))


def inclusion(A: Ideal, B: Ideal) -> Morphism:
    """The inclusion j(A, B): the identity function restricted to A."""
    if not is_subideal(A, B):
        raise NotASubideal(f"{A} is not contained in {B}")
    return _raw_morphism(A, B, Fraction.one(A.ring))


def is_inclusion(f: Morphism) -> bool:
    return is_subideal(f.dom, f.cod) and f == inclusion(f.dom, f.cod)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f; multipliers multiply."""
    if f.cod is not g.dom and f.cod != g.dom:  # identity first: no __eq__ call
        raise NotComposable(f"cod {f.cod} of f differs from dom {g.dom} of g")
    return _raw_morphism(f.dom, g.cod, f.multiplier * g.multiplier)


def hom_add(f: Morphism, g: Morphism) -> Morphism:
    if (f.dom is not g.dom and f.dom != g.dom) or (f.cod is not g.cod and f.cod != g.cod):
        raise HomMismatch(f"cannot add {f} and {g}")
    return _raw_morphism(f.dom, f.cod, f.multiplier + g.multiplier)


def hom_neg(f: Morphism) -> Morphism:
    return _raw_morphism(f.dom, f.cod, -f.multiplier)


def apply(f: Morphism, x: RingElement) -> RingElement:
    """Evaluate the morphism at x; the result lies in f.cod."""
    ring = f.dom.ring
    x = ring.coerce(x)
    s = f.multiplier
    n = ring.characteristic
    if n:  # Z_n: <a> holds the multiples of a, <0> only 0, and s is k/1
        if not x % (f.dom.generator or n):
            return x * s.num % n
    elif contains_element(f.dom, x):
        return ring.exact_div(ring.mul(x, s.num), s.den)
    raise NotInDomain(f"{ring.describe_element(x)} is not in {f.dom}")


def image(f: Morphism) -> Ideal:
    """The ideal f(dom) = <multiplier * dom.generator>."""
    ring = f.dom.ring
    n = ring.characteristic
    if n:  # Z_n: <a k> is <gcd(a k, n)>, given as (a k mod n,) unless a or k is 0
        ak = f.dom.generator * f.multiplier.num
        return _ideal(ring, math.gcd(ak, n) % n, (ak % n,) if ak else ())
    if f.dom.is_zero or f.multiplier.is_zero:
        return ideal_new(ring)
    s = f.multiplier
    return ideal_new(ring, [ring.exact_div(ring.mul(s.num, f.dom.generator), s.den)])


def kernel_generator(f: Morphism) -> RingElement:
    """Canonical generator of {x in dom : f(x) = 0}, which is a * ann(a*s).

    Over a domain a*s is zero exactly when a*num is, so den is left out.
    """
    ring, a = f.dom.ring, f.dom.generator
    n = ring.characteristic
    if n:  # Z_n: ann(c) = <n / gcd(c, n)>
        return math.gcd(a * (n // math.gcd(a * f.multiplier.num, n)), n) % n
    return ring.canonical(ring.mul(a, ring.annihilator(ring.mul(a, f.multiplier.num))))


def is_mono(f: Morphism) -> bool:
    """Monomorphism test: the kernel is the zero ideal."""
    return f.dom.ring.is_zero(kernel_generator(f))


def is_epi(f: Morphism) -> bool:
    """Epimorphism test: surjectivity over Z_n, nonzero multiplier otherwise."""
    if not f.dom.ring.is_domain:
        return image(f) == f.cod
    return not f.multiplier.is_zero or f.cod.is_zero


def enumerate_objects(ring: Ring) -> list[Ideal]:
    """All ideals of Z_n: one per divisor of n, with <n> normalized to <0>.
    ring.ideal_generators refuses n above MAX_OBJECT_MODULUS."""
    return [_ideal(ring, g) for g in ring.ideal_generators()]


def ideal_elements(A: Ideal) -> tuple[int, ...]:
    """The elements of a Z_n ideal, sorted. An ideal of more than
    MAX_HOM_LISTING elements raises ListingTooLarge before any is listed."""
    n = A.ring.characteristic
    if not n:
        raise InfiniteObjectClass(f"cannot list elements of an ideal of {A.ring}")
    step = A.generator or n
    if n // step > MAX_HOM_LISTING:
        raise ListingTooLarge(f"{A} over {A.ring} has {n // step} elements, "
                              f"above the listing limit {MAX_HOM_LISTING}")
    return tuple(range(0, n, step))


def all_morphisms(ring: Ring) -> list[Morphism]:
    """Every morphism of the category of Z_n ideals, in canonical order."""
    objs = enumerate_objects(ring)
    return [f for A in objs for B in objs for f in enumerate_hom(A, B).elements]


def enumerate_hom(A: Ideal, B: Ideal, mode: str = FULL) -> HomSet:
    """Describe all morphisms A -> B.

    Z_n with A = <a>: the valid canonical multipliers are exactly the
    multiples of b/gcd(a, b) modulo n/a, listed explicitly, and more than
    MAX_HOM_LISTING of them raise ListingTooLarge. For A = <0> the modulus
    is 1, so it admits only the zero morphism. Over Z and Q[x] the
    description is cyclic with base b/a (full mode) or b/gcd(a, b) (paper
    mode).
    """
    _require_same_ring(A, B)
    _check_mode(mode)
    ring = A.ring
    a, b = A.generator, B.generator
    m = A._modulus
    if m:
        base = (b // ring.gcd(a, b)) % m if b else 0
        step = math.gcd(base, m)
        if m // step > MAX_HOM_LISTING:
            raise ListingTooLarge(f"Hom({A}, {B}) has {m // step} morphisms, "
                                  f"above the listing limit {MAX_HOM_LISTING}")
        elements = tuple(  # the multiples of base modulo m
            _raw_morphism(A, B, Fraction(ring, s, ring.one)) for s in range(0, m, step))
        return HomSet(A, B, Fraction(ring, base, ring.one), m, elements)
    if A.is_zero or B.is_zero:
        return HomSet(A, B, Fraction.zero(ring))
    if mode == FULL:
        return HomSet(A, B, fraction_reduce(ring, b, a))
    base = ring.exact_div(b, ring.gcd(a, b))
    return HomSet(A, B, Fraction.from_element(ring, base))
