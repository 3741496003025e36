import math
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idealcat.errors import FractionOverNonDomain, ParseError, RingMismatch, ZeroDenominator
from idealcat.fracfield import Fraction, format_fraction, fraction_reduce, parse_fraction
from idealcat.poly import Poly, parse_poly
from idealcat.rings import INTEGERS, RATIONAL_POLYNOMIALS, ModularRing
from reference_poly import Poly as RefPoly

Z = INTEGERS
QX = RATIONAL_POLYNOMIALS
Z6 = ModularRing(6)

ints = st.integers(-500, 500)
nonzero_ints = ints.filter(bool)


def test_reduce_examples():
    f = fraction_reduce(Z, 6, 4)
    assert (f.num, f.den) == (3, 2)
    f = fraction_reduce(Z, 0, 5)
    assert (f.num, f.den) == (0, 1)
    f = fraction_reduce(QX, parse_poly("x^2-1"), parse_poly("x-1"))
    assert f.num == parse_poly("x+1") and f.den == QX.one
    # checked by expansion: (x+1)(x-1) = x^2-1
    assert f.num * parse_poly("x-1") == parse_poly("x^2-1")


def test_unit_moves_into_numerator():
    f = fraction_reduce(Z, 3, -2)
    assert (f.num, f.den) == (-3, 2)
    f = fraction_reduce(QX, parse_poly("x"), parse_poly("2x-2"))
    assert f.den == parse_poly("x-1")  # denominator made monic
    assert f.num * parse_poly("2x-2") == parse_poly("x") * f.den  # same value


def test_errors():
    with pytest.raises(ZeroDenominator):
        fraction_reduce(Z, 1, 0)
    with pytest.raises(FractionOverNonDomain):
        fraction_reduce(Z6, 4, 5)
    with pytest.raises(RingMismatch):
        Fraction.from_element(Z, 1) + Fraction.from_element(Z6, 1)


def test_zmod_unit_denominator_allowed():
    f = fraction_reduce(Z6, 10, 1)
    assert (f.num, f.den) == (4, 1)


def test_is_one_is_the_fraction_one_alone():
    for ring in (Z, Z6, QX):
        assert Fraction.one(ring).is_one
        assert fraction_reduce(ring, 7, 7).is_one
        assert not Fraction.zero(ring).is_one
    assert fraction_reduce(Z6, 7, 1).is_one  # 7 is 1 mod 6
    assert not fraction_reduce(Z, 1, 2).is_one and not fraction_reduce(Z, 2, 1).is_one
    assert not fraction_reduce(QX, parse_poly("x"), parse_poly("x+1")).is_one


def test_zmod_sums_and_products_match_fraction_reduce():
    for n in (2, 6, 12):
        ring = ModularRing(n)
        for a, b in ((a, b) for a in range(n) for b in range(n)):
            fa, fb = Fraction.from_element(ring, a), Fraction.from_element(ring, b)
            assert fa + fb == fraction_reduce(ring, a + b, 1)
            assert fa * fb == fraction_reduce(ring, a * b, 1)
    # a Z_n fraction is k/1: building one over any other denominator fails
    for den in (5, 2, 0, 7):
        with pytest.raises(FractionOverNonDomain, match=f"denominator {den} over zmod:6"):
            Fraction(Z6, 1, den)


@given(ints, nonzero_ints)
def test_reduced_invariants(num, den):
    f = fraction_reduce(Z, num, den)
    assert f.den > 0
    assert math.gcd(abs(f.num), f.den) == 1
    if num == 0:
        assert (f.num, f.den) == (0, 1)
    assert f.num * den == num * f.den  # same rational value


@given(ints, nonzero_ints, ints, nonzero_ints)
def test_field_laws(a, b, c, d):
    x = fraction_reduce(Z, a, b)
    y = fraction_reduce(Z, c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x + (-x) == Fraction.zero(Z)
    assert (x + y) * y == x * y + y * y


def test_format_parse_round_trip_examples():
    for ring, text in [
        (Z, "3/2"),
        (Z, "-7"),
        (Z6, "4"),
        (QX, "1x+1"),
        (QX, "(1x+1)/(1x-1)"),
        (QX, "(1)/(1x)"),
    ]:
        f = parse_fraction(ring, text)
        assert parse_fraction(ring, format_fraction(f)) == f


@given(ints, nonzero_ints)
def test_format_parse_round_trip_random(num, den):
    f = fraction_reduce(Z, num, den)
    assert parse_fraction(Z, format_fraction(f)) == f


def test_parse_rejects_garbage():
    for ring, text in [(Z, ""), (Z, "3//2"), (QX, "(x+1)/x-1)"), (Z, "a/b")]:
        with pytest.raises(ParseError):
            parse_fraction(ring, text)


# --- qpoly reduction against the Fraction-coefficient reference -------------

poly_coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
coefficient_lists = st.lists(poly_coefficients, max_size=4)
nonzero_lists = coefficient_lists.filter(lambda cs: any(cs))
constants = st.lists(poly_coefficients.filter(bool), min_size=1, max_size=1)


def ref_reduce(num: RefPoly, den: RefPoly) -> tuple:
    """num/den in lowest terms with a monic denominator, by the reference
    Poly's Euclid: the reduction the library made before it went fraction-free."""
    if num.is_zero:
        return (), (Q(1),)
    a, b = num, den
    while not b.is_zero:
        a, b = b, a % b
    g = a.monic()
    num, den = num // g, den // g
    lead = den.leading
    return tuple(c / lead for c in num.coeffs), den.monic().coeffs


def check_reduce(num_cs, den_cs):
    f = fraction_reduce(QX, Poly(num_cs), Poly(den_cs))
    assert (f.num.coeffs, f.den.coeffs) == ref_reduce(RefPoly(num_cs), RefPoly(den_cs))
    assert all(type(c) is Q for c in f.num.coeffs + f.den.coeffs)


@given(coefficient_lists, nonzero_lists)
def test_qpoly_reduce_matches_reference(num_cs, den_cs):
    check_reduce(num_cs, den_cs)


@given(coefficient_lists)
def test_qpoly_reduce_over_one_returns_the_numerator(num_cs):
    check_reduce(num_cs, [1])
    assert fraction_reduce(QX, Poly(num_cs), QX.one).num == Poly(num_cs)


@given(coefficient_lists, constants)
def test_qpoly_reduce_with_a_constant_side(cs, const):
    check_reduce(cs, const)  # constant denominator: the gcd is a unit
    if any(cs):
        check_reduce(const, cs)  # constant numerator


@given(nonzero_lists.filter(lambda cs: len(RefPoly(cs).coeffs) > 1),
       coefficient_lists, nonzero_lists)
def test_qpoly_reduce_cancels_a_common_factor(g_cs, a_cs, b_cs):
    g, a, b = RefPoly(g_cs), RefPoly(a_cs), RefPoly(b_cs)
    check_reduce((g * a).coeffs, (g * b).coeffs)


def test_qpoly_reduce_examples():
    check_reduce([0, 2], [Q(2, 3)])  # 2x / (2/3) = 3x
    check_reduce([Q(1, 2)], [-1, 1])  # (1/2) / (x - 1)
    check_reduce([-1, 0, 1], [-2, 2])  # (x^2 - 1) / (2x - 2) = (x + 1)/2
    check_reduce([1, 1], [-1, 0, 1])  # (x + 1) / (x^2 - 1) = 1/(x - 1)


# --- crosswise products and gcd-first sums against fraction_reduce -----------

def planted_pairs(ring, elements):
    """Two reduced fractions a/b, c/d whose parts were built with planted
    common factors between a and d, c and b, and b and d; numerators may be
    zero or negative and denominators units."""
    nonzero = elements.filter(lambda e: not ring.is_zero(e))
    factor = st.one_of(st.just(ring.one), nonzero)

    @st.composite
    def pairs(draw):
        f_ad, f_bc, f_bd, y, w = (draw(factor) for _ in range(5))
        x, z = draw(elements), draw(elements)
        mul = ring.mul
        return (fraction_reduce(ring, mul(f_ad, x), mul(mul(f_bc, f_bd), y)),
                fraction_reduce(ring, mul(f_bc, z), mul(mul(f_ad, f_bd), w)))

    return pairs()


fraction_pairs = st.one_of(
    planted_pairs(Z, st.integers(-12, 12)),
    planted_pairs(QX, st.builds(Poly, st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=3))),
)


@given(fraction_pairs)
def test_sums_and_products_match_the_reduced_cross_products(pair):
    f, g = pair
    r = f.ring
    a, b, c, d = f.num, f.den, g.num, g.den

    def cross(e):
        return fraction_reduce(r, r.add(r.mul(a, d), r.mul(e, b)), r.mul(b, d))

    cases = ((f * g, fraction_reduce(r, r.mul(a, c), r.mul(b, d))),
             (f + g, cross(c)), (f - g, cross(r.neg(c))))
    for got, want in cases:
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den == r.canonical(got.den)
        assert r.is_unit(r.gcd(got.num, got.den))
