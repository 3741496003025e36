import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idealcat.errors import (
    FractionOverNonDomain,
    InfiniteObjectClass,
    ListingTooLarge,
    InvalidMultiplier,
    NotASubideal,
    NotComposable,
    NotInDomain,
    RingMismatch,
)
from idealcat.formats import parse_morphism
from idealcat.fracfield import Fraction, fraction_reduce
from idealcat.hasse import _divisor_covers, covering_pairs
from idealcat.ideals import (
    MAX_OBJECT_MODULUS,
    HomSet,
    Ideal,
    Morphism,
    all_morphisms,
    apply,
    compose,
    contains_element,
    enumerate_hom,
    enumerate_objects,
    hom_add,
    hom_neg,
    ideal_elements,
    ideal_new,
    ideal_sum,
    identity,
    image,
    inclusion,
    intersect,
    is_epi,
    is_inclusion,
    is_mono,
    is_subideal,
    kernel_generator,
    morphism_new,
    zero_morphism,
)
from idealcat.poly import parse_poly
from idealcat.rings import INTEGERS, RATIONAL_POLYNOMIALS, ModularRing

Z = INTEGERS
QX = RATIONAL_POLYNOMIALS
Z6 = ModularRing(6)


def zmod_set(n, g):
    """Independent membership oracle: the set an element generates in Z_n."""
    return {(k * g) % n for k in range(n)}


def zi(*gens):
    return ideal_new(Z, gens)


def z6i(*gens):
    return ideal_new(Z6, gens)


# --- objects ---------------------------------------------------------------


def test_ideal_new_examples():
    assert zi(4, 6).generator == 2
    assert z6i(4).generator == 2
    assert zmod_set(6, 4) == zmod_set(6, 2) == {0, 2, 4}
    assert ideal_new(QX).generator == QX.zero


def test_ideal_equality_ignores_provenance():
    assert zi(4, 6) == zi(2) == zi(-2)
    assert hash(zi(4, 6)) == hash(zi(2))
    assert zi(2) != z6i(2)
    assert ideal_new(Z6, [2]).given_generators == (2,)


def test_ideal_new_idempotent():
    A = z6i(4)
    assert ideal_new(Z6, [A.generator]) == A


@pytest.mark.parametrize("ring, generator", [
    (Z, -2),
    (Z6, 4),
    (Z6, 6),
    (QX, parse_poly("2x+2")),
], ids=["z:-2", "zmod:6:4", "zmod:6:6", "qpoly:2x+2"])
def test_ideal_refuses_a_generator_that_is_not_canonical(ring, generator):
    # Ideal(Z, -2) once rendered as <-2> and differed from ideal_new(Z, [-2]) = <2>
    with pytest.raises(ValueError):
        Ideal(ring, generator)
    A = ideal_new(ring, [generator])
    assert Ideal(A.ring, A.generator) == A


def test_morphism_refuses_a_multiplier_that_is_not_canonical():
    # Morphism(<1>, <1>, 7) over zmod:6 was the identity map, yet unequal to identity(<1>)
    one = ideal_new(Z6, [1])
    with pytest.raises(ValueError, match="build morphisms with morphism_new"):
        Morphism(one, one, Fraction(Z6, 7, 1))
    with pytest.raises(ValueError, match="build morphisms with morphism_new"):
        Morphism(one, one, 1)  # an int, which morphism_new would make a Fraction
    with pytest.raises(ValueError, match="build morphisms with morphism_new"):
        Morphism(ideal_new(Z, [2]), ideal_new(Z, [1]), Fraction(Z, 2, 2))
    assert Morphism(one, one, Fraction(Z6, 1, 1)) == identity(one)


@pytest.mark.parametrize("dom, cod, multiplier", [
    (ideal_new(Z, [2]), ideal_new(Z, [3]), Fraction.one(Z)),
    (ideal_new(Z6, [1]), ideal_new(Z6, [2]), Fraction(Z6, 1, 1)),
    (ideal_new(QX, [parse_poly("x")]), ideal_new(QX, [1]),
     fraction_reduce(QX, 1, parse_poly("x^2"))),
], ids=["z:rho(2;1;3)", "zmod:6:rho(1;1;2)", "qpoly:rho(1x;1/x^2;1)"])
def test_morphism_refuses_a_map_that_does_not_send_dom_into_cod(dom, cod, multiplier):
    # Morphism(<2>, <3>, 1) over z rendered rho(2;1;3), which parse_morphism
    # refuses, and its apply sent 2 to 2, outside <3>
    with pytest.raises(InvalidMultiplier):
        morphism_new(dom, cod, multiplier)
    with pytest.raises(InvalidMultiplier):
        Morphism(dom, cod, multiplier)


def test_enumerated_objects_have_canonical_generators():
    for n in range(2, 31):
        ring = ModularRing(n)
        assert [A.generator for A in enumerate_objects(ring)] == ring.ideal_generators()


def test_contains_element():
    assert contains_element(zi(2), 6)
    assert not contains_element(z6i(3), 2)
    assert 2 not in zmod_set(6, 3)
    assert contains_element(zi(0), 0)
    assert not contains_element(zi(0), 1)


def test_subideal():
    assert is_subideal(zi(6), zi(3))
    assert is_subideal(zi(2), zi(2))
    assert not is_subideal(z6i(2), z6i(3))
    with pytest.raises(RingMismatch):
        is_subideal(zi(2), z6i(2))


def test_intersect():
    assert intersect(zi(4), zi(6)) == zi(12)
    for spot in (12, 24):  # both lie in <4> and in <6>
        assert spot % 4 == 0 and spot % 6 == 0
    assert intersect(z6i(2), z6i(3)).is_zero
    assert zmod_set(6, 2) & zmod_set(6, 3) == {0}
    assert intersect(zi(5), zi(0)).is_zero


def test_intersect_agrees_with_set_intersection_mod_12():
    ring = ModularRing(12)
    for a in range(12):
        for b in range(12):
            A, B = ideal_new(ring, [a]), ideal_new(ring, [b])
            expected = zmod_set(12, a) & zmod_set(12, b)
            assert set(ideal_elements(intersect(A, B))) == expected


def test_ideal_sum():
    assert ideal_sum(zi(4), zi(6)) == zi(2)
    assert ideal_sum(z6i(2), z6i(3)) == z6i(1)
    assert {(a + b) % 6 for a in zmod_set(6, 2) for b in zmod_set(6, 3)} == zmod_set(6, 1)
    A = zi(7)
    assert ideal_sum(A, zi(0)) == A
    assert is_subideal(A, ideal_sum(A, zi(4)))


# --- morphisms -------------------------------------------------------------


def test_morphism_new_examples():
    f = morphism_new(zi(2), zi(3), 3)
    assert apply(f, 2) == 6 and contains_element(zi(3), 6)
    with pytest.raises(InvalidMultiplier):
        morphism_new(zi(2), zi(3), 1)
    zero = morphism_new(zi(5), zi(7), 0)
    assert zero.is_zero
    with pytest.raises(RingMismatch, match="multiplier over zmod:6, ideals over z"):
        morphism_new(zi(2), zi(3), Fraction.one(Z6))


def test_fraction_multiplier_modes():
    s = fraction_reduce(Z, 3, 2)
    f = morphism_new(zi(2), zi(3), s)
    assert apply(f, 4) == 6
    with pytest.raises(InvalidMultiplier):
        morphism_new(zi(2), zi(3), s, mode="paper")


def test_a_caller_fraction_multiplier_is_reduced():
    """morphism_new reduces a Fraction built directly, so that equal maps are
    equal Morphisms with one hash; 2/4 used to stay 2/4, unequal to 1/2."""
    x2_1 = ideal_new(QX, [parse_poly("x^2-1")])
    for dom, cod, unreduced, reduced in [
        (zi(4), zi(1), Fraction(Z, 2, 4), fraction_reduce(Z, 1, 2)),
        (zi(4), zi(1), Fraction(Z, -2, -4), fraction_reduce(Z, 1, 2)),
        (zi(6), zi(1), Fraction(Z, 3, -6), fraction_reduce(Z, -1, 2)),
        (x2_1, ideal_new(QX, [1]), Fraction(QX, parse_poly("2x+2"), parse_poly("2x^2-2")),
         fraction_reduce(QX, 1, parse_poly("x-1"))),
    ]:
        f, g = morphism_new(dom, cod, unreduced), morphism_new(dom, cod, reduced)
        assert (f, hash(f), repr(f)) == (g, hash(g), repr(g))
        assert (f.multiplier.num, f.multiplier.den) == (reduced.num, reduced.den)
        # the literal parse path reduces as before
        assert parse_morphism(dom.ring, f.literal) == f
    # a fraction equal to a ring element is one in paper mode
    assert morphism_new(zi(2), zi(1), Fraction(Z, 4, 2), mode="paper").multiplier.is_integral
    assert str(parse_morphism(Z, "rho(4;2/4;1)").multiplier) == "1/2"


def test_a_zmod_fraction_over_another_denominator_is_refused():
    """1/5 over Z_6 used to become rho(1;1;1), the identity, although
    morphism_new had validated x -> 5x: the denominator was dropped."""
    with pytest.raises(FractionOverNonDomain, match="^denominator 5 over zmod:6$"):
        morphism_new(z6i(1), z6i(1), Fraction(Z6, 1, 5))
    with pytest.raises(FractionOverNonDomain, match="^denominator 5 over zmod:6$"):
        fraction_reduce(Z6, 0, 5)
    assert (fraction_reduce(Z6, 1, 7).num, fraction_reduce(Z6, 1, 7).den) == (1, 1)
    f = morphism_new(z6i(1), z6i(1), Fraction(Z6, 5, 1))
    assert apply(f, 1) == 5 and f != identity(z6i(1))


def test_inclusion():
    j = inclusion(zi(6), zi(3))
    assert j.literal == "rho(6;1;3)"
    assert is_inclusion(j)
    assert inclusion(zi(2), zi(2)) == identity(zi(2))
    with pytest.raises(NotASubideal):
        inclusion(z6i(2), z6i(3))


def test_compose_formula_and_zero():
    # rho(m,t,p) . rho(n,s,m) = rho(n, s*t, p)
    f = morphism_new(zi(2), zi(6), 9)
    g = morphism_new(zi(6), zi(3), 2)
    assert compose(g, f) == morphism_new(zi(2), zi(3), 18)
    h = compose(morphism_new(z6i(2), z6i(3), 3), morphism_new(z6i(1), z6i(2), 4))
    assert h.is_zero  # 12 = 0 mod 6
    for x in range(6):
        assert (x * 4 * 3) % 6 == 0
    with pytest.raises(NotComposable):
        compose(f, g)


def test_identity_neutral():
    f = morphism_new(zi(2), zi(3), 3)
    assert compose(identity(zi(3)), f) == f
    assert compose(f, identity(zi(2))) == f


def test_hom_add_and_neg():
    one = z6i(1)
    assert hom_add(morphism_new(one, one, 4), morphism_new(one, one, 3)) == identity(one)
    f = morphism_new(one, z6i(2), 2)
    assert hom_neg(f).multiplier.num == 4  # -2 = 4 mod 6
    assert hom_add(f, hom_neg(f)) == zero_morphism(one, z6i(2))
    assert hom_add(f, zero_morphism(one, z6i(2))) == f
    assert (f + (-f)).is_zero and (f @ identity(one)) == f


def test_apply():
    f = morphism_new(zi(2), zi(3), 3)
    assert apply(f, 4) == 12
    assert apply(f, 0) == 0
    assert apply(morphism_new(z6i(1), z6i(2), 4), 5) == 2  # 20 mod 6
    with pytest.raises(NotInDomain):
        apply(f, 3)


def test_image():
    assert image(morphism_new(zi(2), zi(3), 3)) == zi(6)
    assert image(zero_morphism(zi(5), zi(2))).is_zero
    f = morphism_new(z6i(1), z6i(1), 2)
    assert image(f) == z6i(2)
    assert {apply(f, x) for x in range(6)} == zmod_set(6, 2)


def test_canonical_multiplier_mod_n_over_a():
    # multipliers out of <2> in Z_6 live mod 3: s and s+3 are the same map
    f = morphism_new(z6i(2), z6i(1), 1)
    g = morphism_new(z6i(2), z6i(1), 4)
    assert f == g
    assert all(apply(f, x) == apply(g, x) for x in ideal_elements(z6i(2)))
    out_of_zero = morphism_new(z6i(0), z6i(1), 5)
    assert out_of_zero.is_zero


def test_mono_examples():
    assert is_mono(morphism_new(zi(2), zi(3), 3))
    assert not is_mono(zero_morphism(zi(1), zi(1)))
    assert not is_mono(morphism_new(z6i(1), z6i(2), 2))  # kernel {0, 3}
    assert is_mono(zero_morphism(zi(0), zi(3)))


def test_epi_examples():
    assert is_epi(morphism_new(zi(2), zi(3), 3))  # epi without being surjective
    assert not is_epi(zero_morphism(zi(1), zi(1)))
    assert is_epi(morphism_new(z6i(1), z6i(2), 2))
    assert is_epi(zero_morphism(zi(1), zi(0)))


def test_ideal_elements_are_listed_over_zmod_only():
    assert ideal_elements(z6i(2)) == (0, 2, 4) and ideal_elements(z6i(0)) == (0,)
    with pytest.raises(InfiniteObjectClass):
        ideal_elements(zi(2))


def test_enumerate_objects():
    assert [A.literal for A in enumerate_objects(Z6)] == ["<0>", "<1>", "<2>", "<3>"]
    assert [A.literal for A in enumerate_objects(ModularRing(2))] == ["<0>", "<1>"]
    assert [A.literal for A in enumerate_objects(ModularRing(4))] == ["<0>", "<1>", "<2>"]
    with pytest.raises(InfiniteObjectClass):
        enumerate_objects(Z)


def test_enumerate_objects_pairs_divisors_up_to_the_square_root():
    for n in range(2, 2001):
        scan = sorted(d % n for d in range(1, n + 1) if n % d == 0)
        assert [A.generator for A in enumerate_objects(ModularRing(n))] == scan
    start = time.perf_counter()
    objects = enumerate_objects(ModularRing(10**12))  # 2^12 * 5^12: 13 * 13 divisors
    assert time.perf_counter() - start < 10  # a scan of all n candidates takes hours
    assert len(objects) == 169
    assert objects[0].is_zero and objects[1].generator == 1
    assert objects[-1].generator == 5 * 10**11


def test_enumerate_objects_refuses_a_modulus_above_the_limit():
    assert MAX_OBJECT_MODULUS == 10**12  # the scan up to sqrt(n) takes about 0.05 s there
    start = time.perf_counter()
    assert len(enumerate_objects(ModularRing(MAX_OBJECT_MODULUS - 11))) == 2  # a prime
    assert time.perf_counter() - start < 10
    for n in (MAX_OBJECT_MODULUS + 1, 10**23):
        with pytest.raises(ListingTooLarge, match=f"above the limit {MAX_OBJECT_MODULUS} "):
            enumerate_objects(ModularRing(n))


def test_covering_pairs_match_the_definition():
    """poset_dot's search by ideal orders holds for every ideal of one Z_n."""
    for n in [*range(2, 121), 210, 360, 720, 1024, 2310]:
        objects = enumerate_objects(ModularRing(n))
        assert _divisor_covers(objects) == covering_pairs(objects), n


def test_covering_pairs_of_other_lists_of_ideals():
    """covering_pairs holds for ideals outside Z_n and for part of a Z_n list,
    where the search by ideal orders would miss covers."""
    four, two, one = (ideal_new(Z, [g]) for g in (4, 2, 1))
    assert covering_pairs([four, two, one]) == [(four, two), (two, one)]
    x2, x, unit = (ideal_new(RATIONAL_POLYNOMIALS, [parse_poly(t)]) for t in ("x^2", "x", "1"))
    assert covering_pairs([unit, x2, x]) == [(x2, x), (x, unit)]
    zero, four12, one12 = (ideal_new(ModularRing(12), [g]) for g in (0, 4, 1))
    assert covering_pairs([zero, four12, one12]) == [(zero, four12), (four12, one12)]


@pytest.mark.parametrize("n", range(2, 31))
def test_zmod_operations_match_integer_formulas(n):
    """Every morphism of Z_n against formulas on plain integer residues."""
    ring = ModularRing(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]  # d = n stands for <0>
    for a in divisors:
        dom_elements = range(0, n, a)
        for b in divisors:
            A, B = ideal_new(ring, [a]), ideal_new(ring, [b])
            assert intersect(A, B).generator == math.lcm(a, b) % n
            homs = enumerate_hom(A, B).elements
            # a map is fixed by the image y of a, with y in <b> and (n/a)*y = 0
            assert len(homs) == sum((n // a) * y % n == 0 for y in range(0, n, b))
            for f in homs:
                s = f.multiplier.num
                values = [(x * s) % n for x in dom_elements]
                assert [apply(f, x) for x in dom_elements] == values
                assert image(f).generator == math.gcd(a * s, n) % n
                zero_set = [x for x, y in zip(dom_elements, values) if y == 0]
                assert kernel_generator(f) == math.gcd(n, *zero_set) % n
                assert is_epi(f) == (set(values) == set(range(0, n, b)))


class GenericZmod:
    """Reference for the Z_n morphism operations: the generic Fraction and
    ring formula that the Z_n fast path of idealcat.ideals replaces, written
    with the ring's methods only. The multiplier out of <a> is its residue
    modulo n/a, and 0 out of <0>. compose multiplies and hom_add adds the
    numerators in the ring. apply tests membership with ring.divides and
    evaluates ring.exact_div(ring.mul(x, num), den)."""

    def __init__(self, ring):
        self.ring = ring

    def morphism(self, dom, cod, num):
        ring = self.ring
        if ring.is_zero(dom.generator):
            return Morphism(dom, cod, Fraction(ring, ring.zero, ring.one))
        return Morphism(dom, cod, Fraction(ring, num % (ring.characteristic // dom.generator),
                                           ring.one))

    def sends_into(self, dom, cod, num):
        ring = self.ring
        return (ring.is_zero(dom.generator)
                or ring.divides(cod.generator, ring.mul(num, dom.generator)))

    def compose(self, g, f):
        return self.morphism(f.dom, g.cod, self.ring.mul(f.multiplier.num, g.multiplier.num))

    def hom_add(self, f, g):
        return self.morphism(f.dom, f.cod, self.ring.add(f.multiplier.num, g.multiplier.num))

    def hom_neg(self, f):
        return self.morphism(f.dom, f.cod, self.ring.neg(f.multiplier.num))

    def apply(self, f, x):
        ring = self.ring
        x = ring.coerce(x)
        if not ring.divides(f.dom.generator, x):
            raise NotInDomain(f"{ring.format_element(x)} is not in {f.dom}")
        return ring.exact_div(ring.mul(x, f.multiplier.num), f.multiplier.den)


def _same(value, expected):
    assert (value, hash(value), repr(value)) == (expected, hash(expected), repr(expected))


@pytest.mark.parametrize("n", range(2, 31))
def test_zmod_fast_path_matches_the_generic_formula(n):
    """compose, hom_add, hom_neg, apply and morphism_new over every pair of
    objects of Z_n, the zero ideal included, against GenericZmod. Each
    morphism also has a twin over an equal but distinct ModularRing(n),
    with equal but distinct ideals, so that the identity short-cuts meet
    values that are only equal."""
    ring, other = ModularRing(n), ModularRing(n)
    ref = GenericZmod(ring)
    objects = enumerate_objects(ring)
    hom = {(A, B): enumerate_hom(A, B).elements for A in objects for B in objects}

    def twin(f):
        dom, cod = Ideal(other, f.dom.generator), Ideal(other, f.cod.generator)
        return morphism_new(dom, cod, Fraction(other, f.multiplier.num, other.one))

    for (A, B), fs in hom.items():
        for k in range(-n, 2 * n):  # below 0 and at or above n/a as well
            for multiplier in (k, Fraction(other, k % n, other.one)):
                if ref.sends_into(A, B, ring.coerce(k)):
                    _same(morphism_new(A, B, multiplier), ref.morphism(A, B, ring.coerce(k)))
                else:
                    with pytest.raises(InvalidMultiplier):
                        morphism_new(A, B, multiplier)
        for f in fs:
            _same(hom_neg(f), ref.hom_neg(f))
            _same(hom_neg(twin(f)), ref.hom_neg(f))
            for g in fs:
                _same(hom_add(f, g), ref.hom_add(f, g))
                _same(hom_add(f, twin(g)), ref.hom_add(f, g))
            for x in range(-n, 2 * n):
                try:
                    expected = ref.apply(f, x)
                except NotInDomain as refused:
                    with pytest.raises(NotInDomain) as raised:
                        apply(f, x)
                    assert str(raised.value) == str(refused)
                else:
                    assert apply(f, x) == expected
            for C in objects:
                for g in hom[(B, C)]:
                    _same(compose(g, f), ref.compose(g, f))
                    _same(compose(twin(g), f), ref.compose(g, f))
                    _same(compose(g, twin(f)), ref.compose(g, f))


def test_enumerate_hom_zmod():
    hs = enumerate_hom(z6i(2), z6i(3))
    assert [f.multiplier.num for f in hs.elements] == [0]
    hs = enumerate_hom(z6i(1), z6i(2))
    assert [f.multiplier.num for f in hs.elements] == [0, 2, 4]
    assert hs.modulus == 6 and hs.base.num == 2
    hs = enumerate_hom(z6i(0), z6i(2))
    assert len(hs.elements) == 1 and hs.elements[0].is_zero
    assert hs == HomSet(z6i(0), z6i(2), Fraction.zero(Z6), 1, (zero_morphism(z6i(0), z6i(2)),))
    assert z6i(0)._modulus == 1 and z6i(2)._modulus == 3 and zi(2)._modulus == 0


def test_enumerate_hom_domains():
    hs = enumerate_hom(zi(2), zi(3))
    assert str(hs.base) == "3/2" and hs.modulus is None and hs.elements is None
    assert str(enumerate_hom(zi(2), zi(3), mode="paper").base) == "3"
    assert enumerate_hom(zi(0), zi(3)).base.is_zero
    assert enumerate_hom(zi(3), zi(0)).base.is_zero
    hs = enumerate_hom(ideal_new(QX, [parse_poly("x-1")]), ideal_new(QX, [parse_poly("x^2-1")]))
    assert str(hs.base) == "1x+1"


def test_homset_is_closed_group_z6():
    for A in enumerate_objects(Z6):
        for B in enumerate_objects(Z6):
            hs = enumerate_hom(A, B)
            members = set(hs.elements)
            assert zero_morphism(A, B) in members
            for f in members:
                assert hom_neg(f) in members
                for g in members:
                    assert hom_add(f, g) in members


def test_all_morphisms_count_z6():
    # rows by domain: <0>: 1+1+1+1; <1>: 1+6+3+2; <2>: 1+3+3+1; <3>: 1+2+1+2
    assert len(all_morphisms(Z6)) == 30


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_pointwise_soundness_z(a, s_factor, x_factor):
    A = zi(a)
    B = zi(3)
    base = enumerate_hom(A, B).base
    f_mult = base * Fraction.from_element(Z, s_factor)
    f = morphism_new(A, B, f_mult)
    x = a * x_factor
    y = apply(f, x)
    assert contains_element(B, y)
    assert contains_element(image(f), y)


def test_homset_type_shape():
    hs = enumerate_hom(zi(2), zi(4))
    assert isinstance(hs, HomSet)
    assert hs.dom == zi(2) and hs.cod == zi(4)


# --- the Z_n value layer against the ring's methods -------------------------


class RingMethodReference:
    """The Z_n ideal operations written with the ring's methods only, as the
    generic code computes them over every backend: what the integer formulas
    of idealcat.ideals replace. Ideals are built through the validating
    Ideal constructor, so each reference generator is checked canonical."""

    def __init__(self, ring):
        self.ring = ring

    def ideal(self, gens):
        ring = self.ring
        gens = tuple(ring.coerce(g) for g in gens)
        g = ring.zero
        for x in gens:
            g = ring.gcd(g, x)
        return Ideal(ring, g, gens)

    def image(self, f):
        ring, a, s = self.ring, f.dom.generator, f.multiplier
        if ring.is_zero(a) or ring.is_zero(s.num):
            return self.ideal(())
        return self.ideal([ring.exact_div(ring.mul(s.num, a), s.den)])

    def kernel_generator(self, f):
        ring, a = self.ring, f.dom.generator
        return ring.canonical(ring.mul(a, ring.annihilator(ring.mul(a, f.multiplier.num))))

    def is_subideal(self, A, B):
        return self.ring.divides(B.generator, A.generator)

    def is_mono(self, f):
        return self.ring.is_zero(self.kernel_generator(f))

    def is_epi(self, f):
        return self.image(f).generator == f.cod.generator


def _same_ideal(value, expected):
    assert type(value) is Ideal
    assert (value.ring, value.generator, value.given_generators, value._modulus) == (
        expected.ring, expected.generator, expected.given_generators, expected._modulus)
    assert (value, hash(value), repr(value)) == (expected, hash(expected), repr(expected))


@pytest.mark.parametrize("n", range(2, 61))
def test_zmod_value_layer_matches_the_ring_methods(n):
    """ideal_new on every generator list of length at most 2 (single
    generators from -n to 2n, pairs of residues), and image,
    kernel_generator, is_subideal, is_mono and is_epi on every morphism and
    every pair of ideals of Z_n, given generators included."""
    ring = ModularRing(n)
    ref = RingMethodReference(ring)
    lists = [(), *((g,) for g in range(-n, 2 * n)),
             *((g, h) for g in range(n) for h in range(n))]
    for gens in lists:
        _same_ideal(ideal_new(ring, gens), ref.ideal(gens))
    _same_ideal(ideal_new(ring, (g for g in (n + 4, -6))), ref.ideal((n + 4, -6)))
    objects = enumerate_objects(ring)
    for A in objects:
        _same_ideal(A, Ideal(ring, A.generator))
        for B in objects:
            assert is_subideal(A, B) == ref.is_subideal(A, B), (A, B)
            for f in enumerate_hom(A, B).elements:
                _same_ideal(image(f), ref.image(f))
                assert kernel_generator(f) == ref.kernel_generator(f), f
                assert is_mono(f) == ref.is_mono(f), f
                assert is_epi(f) == ref.is_epi(f), f


def test_ideal_new_refuses_a_non_int_as_coerce_does():
    ring = ModularRing(12)
    for bad in ("3", 3.0, True, None):
        with pytest.raises(TypeError) as raised:
            ideal_new(ring, [4, bad])
        assert str(raised.value) == f"not a residue: {bad!r}"
        with pytest.raises(TypeError):
            ideal_new(Z, [bad])


def test_given_generators_are_the_coerced_list():
    ring = ModularRing(12)
    assert ideal_new(ring, [20, -3]).given_generators == (8, 9)
    assert ideal_new(ring, [20, -3]).generator == 1
    four, one = ideal_new(ring, [4]), ideal_new(ring, [1])
    assert image(morphism_new(four, one, 2)).given_generators == (8,)
    assert image(morphism_new(four, one, 3)).given_generators == ()  # 3 = 0 mod 12/4
    # a multiplier left uncanonical: a k = 0 mod n, but neither a nor k is 0;
    # Morphism(...) refuses it, so its slots are filled directly
    uncanonical = object.__new__(Morphism)
    for name, value in zip(Morphism._fields, (four, one, Fraction(ring, 3, 1))):
        getattr(Morphism, name).__set__(uncanonical, value)
    assert image(uncanonical).given_generators == (0,)


# --- morphism equality and hash --------------------------------------------


def _equality_key(f):
    """What morphism equality means: both rings, both generators, and the
    multiplier compared as a Fraction (ring, num and den)."""
    return (f.dom.ring.literal, f.dom.generator, f.cod.ring.literal, f.cod.generator,
            f.multiplier)


def _assert_equality_agrees_with_the_key(pool):
    keyed = [(f, _equality_key(f), hash(f)) for f in pool]
    for f, kf, hf in keyed:
        for g, kg, hg in keyed:
            equal = kf == kg
            assert (f == g) is equal and (f != g) is (not equal), (f, g)
            if equal:
                assert hf == hg, (f, g)


def _rebuilt(f, ring):
    """f on fresh Ideal objects over ring, an equal ring."""
    dom, cod = Ideal(ring, f.dom.generator), Ideal(ring, f.cod.generator)
    return Morphism(dom, cod, Fraction(ring, f.multiplier.num, f.multiplier.den))


def test_morphism_equality_and_hash_over_zmod():
    """Every pair among the morphisms of Z_n and copies rebuilt on equal but
    distinct Ideals (half of them over a distinct but equal ring)."""
    for n in range(2, 37):
        ring, other = ModularRing(n), ModularRing(n)
        morphisms = all_morphisms(ring)
        copies = [_rebuilt(f, (ring, other)[i % 2]) for i, f in enumerate(morphisms)]
        assert all(f == g and f.dom is not g.dom for f, g in zip(morphisms, copies))
        _assert_equality_agrees_with_the_key(morphisms + copies)


def test_morphism_equality_across_rings():
    """Equal generators and multipliers over different rings are unequal."""
    pool = [f for n in (4, 8) for f in all_morphisms(ModularRing(n))]
    pool += [morphism_new(zi(a), zi(b), k) for a in (1, 2, 4) for b in (1, 2) for k in (0, 2, 4)]
    _assert_equality_agrees_with_the_key(pool)


@pytest.mark.parametrize("ring", [Z, QX], ids=["z", "qpoly"])
def test_morphism_equality_and_hash_on_drawn_morphisms(ring):
    """Seeded draws from a few small generators and multiplier factors, so
    that equal maps recur, each also rebuilt on fresh Ideals."""
    rng = random.Random(20231)
    gens = [ring.coerce(g) for g in (0, 1, 2, -3, 6)]
    if ring is QX:
        gens += [parse_poly(t) for t in ("x", "2x+2", "x^2-1")]
    factors = [Fraction.from_element(ring, c) for c in (0, 1, -1, 2)]
    pool = []
    for _ in range(150):
        A, B = ideal_new(ring, [rng.choice(gens)]), ideal_new(ring, [rng.choice(gens)])
        f = morphism_new(A, B, enumerate_hom(A, B).base * rng.choice(factors))
        pool += [f, _rebuilt(f, ring)]
    assert not all(f.multiplier.is_integral for f in pool)  # b/a multipliers too
    assert len(set(pool)) < len(pool) / 2  # equal maps recur
    _assert_equality_agrees_with_the_key(pool)


# --- listing bounds --------------------------------------------------------


def test_ideal_elements_refuses_more_than_the_listing_limit():
    start = time.perf_counter()
    huge = ModularRing(10**12)
    with pytest.raises(ListingTooLarge, match=f"<1> over zmod:{10**12} has {10**12} elements, "
                                              "above the listing limit 100000"):
        ideal_elements(ideal_new(huge, [1]))
    with pytest.raises(ListingTooLarge, match=f"has {2 * 10**5} elements"):
        ideal_elements(ideal_new(huge, [5 * 10**6]))
    assert time.perf_counter() - start < 1
    assert ideal_elements(ideal_new(huge, [0])) == (0,)
    assert len(ideal_elements(ideal_new(huge, [10**7]))) == 10**5
    assert ideal_elements(ideal_new(ModularRing(100_000), [1])) == tuple(range(100_000))
    with pytest.raises(ListingTooLarge):
        ideal_elements(ideal_new(ModularRing(100_001), [1]))
