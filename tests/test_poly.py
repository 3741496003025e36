import math
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idealcat.errors import ParseError
from idealcat.poly import MAX_LITERAL_DEGREE, Poly, format_poly, parse_poly
from reference_poly import Poly as RefPoly
from reference_poly import format_poly as ref_format
from reference_poly import parse_poly as ref_parse

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.builds(Poly, st.lists(coefficients, max_size=5))


def test_trailing_zeros_are_dropped():
    assert Poly((1, 2, 0, 0)).coeffs == (Q(1), Q(2))
    assert Poly((0, 0)).is_zero
    assert Poly().degree == -1


def test_arithmetic_basics():
    x = Poly((0, 1))
    assert (x + Poly((1,))) * (x - Poly((1,))) == Poly((-1, 0, 1))
    assert -(x - x) == Poly()
    q, r = divmod(Poly((-1, 0, 1)), Poly((-1, 1)))
    assert q == Poly((1, 1)) and r.is_zero


def test_divmod_identity_and_remainder_degree():
    a = Poly((Q(1, 2), 3, 0, 2))
    b = Poly((1, 1))
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly((1,)), Poly())


def test_format_examples():
    assert format_poly(Poly((5, -1, Q(3, 2)))) == "3/2x^2-1x+5"
    assert format_poly(Poly()) == "0"
    assert format_poly(Poly((0, 1))) == "1x"
    assert format_poly(Poly((Q(-1, 3),))) == "-1/3"


def test_parse_examples():
    assert parse_poly("3/2x^2-1x+5/1") == Poly((5, -1, Q(3, 2)))
    assert parse_poly("x^2-x") == Poly((0, -1, 1))
    assert parse_poly("-x") == Poly((0, -1))
    assert parse_poly("0") == Poly()
    assert parse_poly(" 1x + 2 ") == Poly((2, 1))


@pytest.mark.parametrize("bad", ["", "x^", "3//2", "y+1", "1/0x", "+"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


@given(polys)
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p)) == p


@given(polys, polys)
def test_ring_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a


@given(polys, polys)
def test_divmod_is_division(a, b):
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(polys)
def test_monic_is_canonical(p):
    m = p.monic()
    if p.is_zero:
        assert m.is_zero
    else:
        assert m.leading == 1
        assert m.monic() == m


# --- against the Fraction-coefficient reference (tests/reference_poly.py) ----

wide_coefficients = st.one_of(
    coefficients,
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6),
)
wide_polys = st.lists(wide_coefficients, max_size=8)
small_polys = st.lists(st.sampled_from([Q(0), Q(1), Q(-1), Q(1, 2), Q(2)]), max_size=3)


def same(p: Poly, ref: RefPoly) -> bool:
    """p equals ref, p keeps its invariant and coeffs stays a Fraction tuple."""
    ints, cn, cd = p._ic, p._cn, p._cd
    reduced = math.gcd(cn, cd) == 1 and cd > 0
    primitive = (cn, cd) == (0, 1) if not ints else (
        math.gcd(*ints) == 1 and ints[-1] > 0 and cn != 0 and reduced)
    return (primitive and type(p.coeffs) is tuple
            and all(type(c) is Q for c in p.coeffs) and p.coeffs == ref.coeffs)


@pytest.mark.parametrize("value", [3, -2, 0, True, Q(-2, 3), "3/4", 0.5])
def test_const_reads_ints_and_whatever_fraction_reads(value):
    c = Poly.const(value)
    assert c == Poly((value,)) == Poly.from_pairs([(Q(value).numerator, Q(value).denominator)])
    assert c.coeffs == ((Q(value),) if value else ())


def test_invariant_examples():
    p = Poly((Q(1, 2), Q(-3, 4), Q(-5, 6)))
    assert p._ic == (-6, 9, 10) and (p._cn, p._cd) == (-1, 12)
    assert Poly()._ic == () and (Poly()._cn, Poly()._cd) == (0, 1)
    c = Poly.const(Q(-2, 3))
    assert c._ic == (1,) and (c._cn, c._cd) == (-2, 3) and Poly.const(0).is_zero
    for q in (p, c, p * c, p + c, -p):
        assert math.gcd(q._cn, q._cd) == 1 and q._cd > 0 and q._cn != 0


@given(wide_polys, wide_polys)
def test_arithmetic_matches_reference(a, b):
    p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    assert same(p, rp) and same(q, rq)
    assert same(p + q, rp + rq)
    assert same(p - q, rp - rq)
    assert same(-p, -rp)
    assert same(p * q, rp * rq)
    assert same(p.monic(), rp.monic())
    assert p.degree == rp.degree and p.leading == rp.leading
    assert all(p.coefficient(k) == rp.coefficient(k) for k in range(-1, len(a) + 1))
    assert p.evaluate(Q(-3, 2)) == rp.evaluate(Q(-3, 2)) and p.evaluate(2) == rp.evaluate(2)


@given(wide_polys, wide_polys)
def test_divmod_matches_reference(a, b):
    p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    if q.is_zero:
        return
    quot, rem = divmod(p, q)
    ref_quot, ref_rem = divmod(rp, rq)
    assert same(quot, ref_quot) and same(rem, ref_rem)
    assert same(p // q, ref_quot) and same(p % q, ref_rem)


@given(st.lists(wide_coefficients, min_size=1, max_size=4),
       st.lists(wide_coefficients, min_size=2, max_size=4).filter(lambda cs: cs[-1]),
       st.lists(wide_coefficients, max_size=3))
def test_divmod_recovers_a_planted_quotient(qs, bs, rs):
    # a = q*b + r with deg r < deg b, so divmod(a, b) must return (q, r) exactly
    b, r = RefPoly(bs), RefPoly(rs[: len(bs) - 1])
    a = RefPoly(qs) * b + r
    quot, rem = divmod(Poly(a.coeffs), Poly(bs))
    assert same(quot, RefPoly(qs)) and same(rem, r)


@given(small_polys, small_polys)
def test_equality_and_hash_match_reference(a, b):
    p, q = Poly(a), Poly(b)
    assert (p == q) == (RefPoly(a) == RefPoly(b))
    if p == q:
        assert hash(p) == hash(q)
    assert p == Poly(p.coeffs) and hash(p) == hash(Poly(p.coeffs))
    assert p * Poly((1,)) == p and hash(p * Poly((1,))) == hash(p)


@given(wide_polys)
def test_text_form_matches_reference(a):
    p, rp = Poly(a), RefPoly(a)
    text = format_poly(p)
    assert text == ref_format(rp)
    assert same(parse_poly(text), ref_parse(text))


literal_terms = st.tuples(st.sampled_from("+-"), st.integers(0, 12), st.integers(1, 6),
                          st.integers(0, 3))


@given(st.lists(literal_terms, min_size=1, max_size=8))
def test_parse_sums_the_terms_of_one_degree_like_the_reference(terms):
    text = "".join(f"{sign}{n}/{d}x^{e}" for sign, n, d, e in terms)
    assert same(parse_poly(text), ref_parse(text))


def test_parse_caps_the_literal_degree():
    assert parse_poly(f"x^{MAX_LITERAL_DEGREE}").degree == MAX_LITERAL_DEGREE
    assert parse_poly(f"x^000{MAX_LITERAL_DEGREE}").degree == MAX_LITERAL_DEGREE
    for bad in (f"x^{MAX_LITERAL_DEGREE + 1}", "x^100000000", "1+x^" + "9" * 5000):
        with pytest.raises(ParseError, match="above the limit"):
            parse_poly(bad)


def test_parse_rejects_coefficients_int_cannot_read():
    with pytest.raises(ParseError, match="too many digits"):
        parse_poly("7" * 5000 + "x")


def test_repr_describes_a_coefficient_too_long_to_print():
    # 5,001 digits: above sys.get_int_max_str_digits(); repr() once raised ValueError
    huge = Poly.const(10**5000)
    assert repr(huge) == "Poly(<a polynomial of degree 0>)"
    assert repr(Poly.const(10**5000) * Poly((0, 1))) == "Poly(<a polynomial of degree 1>)"
    assert repr(Poly((1, 2))) == "Poly('2x+1')"
    # str() still refuses it, so that no literal is written that cannot be read back
    with pytest.raises(ValueError):
        str(huge)
