import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import idealcat
from idealcat.errors import ListingTooLarge, ParseError
from idealcat.ideals import ideal_new, morphism_new
from idealcat.poly import Poly, parse_poly
from idealcat.rings import (
    INTEGERS,
    MAX_OBJECT_MODULUS,
    RATIONAL_POLYNOMIALS,
    ModularRing,
    canonical_generator,
    combination_witness,
    divides,
    euclid_gcd,
    euclid_xgcd,
    ring_from_literal,
)

Z = INTEGERS
QX = RATIONAL_POLYNOMIALS
Z6 = ModularRing(6)

ints = st.integers(-2000, 2000)
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.builds(Poly, st.lists(coefficients, max_size=4))


def test_ring_literals_round_trip():
    for lit in ("z", "zmod:6", "zmod:2", "qpoly"):
        assert ring_from_literal(lit).literal == lit
    assert ring_from_literal("zmod:6") == ModularRing(6)
    assert ring_from_literal("z") != ring_from_literal("qpoly")


def test_equal_rings_hash_alike():
    rings = [ring_from_literal(lit) for lit in ("z", "qpoly", "zmod:6", "zmod:12")]
    again = [ring_from_literal(lit) for lit in ("z", "qpoly", "zmod:6", "zmod:12")]
    assert [hash(r) for r in rings] == [hash(r) for r in again]
    assert len({hash(r) for r in rings}) == 4
    assert {ModularRing(6): "a"}[ModularRing(6)] == "a"


@pytest.mark.parametrize("bad", ["", "Z", "zmod:", "zmod:1", "zmod:x", "gf:7"])
def test_bad_ring_literals(bad):
    with pytest.raises(ParseError):
        ring_from_literal(bad)


def test_modulus_lower_bound():
    with pytest.raises(ValueError):
        ModularRing(1)


def test_gcd_examples():
    assert euclid_gcd(Z, 12, 18) == 6
    assert euclid_gcd(Z, 0, 0) == 0
    # one polynomial division step: x^2-1 = (x+1)(x-1) + 0
    assert euclid_gcd(QX, parse_poly("x^2-1"), parse_poly("x-1")) == parse_poly("x-1")


def test_gcd_rejects_zmod():
    with pytest.raises(ValueError):
        euclid_gcd(Z6, 4, 2)


def test_xgcd_rejects_zmod():
    with pytest.raises(ValueError, match="^euclid_xgcd is defined over the domain backends only$"):
        euclid_xgcd(Z6, 4, 2)


def test_qpoly_coerces_a_rational_to_a_constant():
    assert QX.coerce(Q(3, 2)) == parse_poly("3/2") == Poly.const(Q(3, 2))
    assert QX.coerce(Q(0)) == QX.zero
    assert QX.coerce(Q(4, 2)) == QX.coerce(2)


def test_divides_examples():
    assert divides(Z, 3, 6)
    assert divides(Z, 0, 0)
    assert not divides(Z, 0, 2)
    # 4*5 = 20 = 2 (mod 6), confirmed by scanning r in 0..5
    assert any((4 * r) % 6 == 2 for r in range(6))
    assert divides(Z6, 4, 2)
    assert not divides(Z6, 2, 3)


def test_canonical_generator_examples():
    assert canonical_generator(Z, [4, 6]) == 2  # Bezout: 6 - 4 = 2
    assert canonical_generator(Z6, [5]) == 1  # 5 is a unit mod 6
    assert canonical_generator(Z, []) == 0
    assert canonical_generator(Z6, []) == 0
    assert canonical_generator(Z6, [6]) == 0
    assert canonical_generator(QX, [parse_poly("2x^2-2"), parse_poly("3x-3")]) == parse_poly("x-1")


@given(ints, ints)
def test_gcd_commutative(a, b):
    assert euclid_gcd(Z, a, b) == euclid_gcd(Z, b, a) == math.gcd(a, b)


@given(ints, ints, ints)
def test_gcd_fold_associative(a, b, c):
    left = euclid_gcd(Z, euclid_gcd(Z, a, b), c)
    right = euclid_gcd(Z, a, euclid_gcd(Z, b, c))
    assert left == right


@given(ints)
def test_gcd_idempotent(a):
    assert euclid_gcd(Z, a, a) == abs(a)


@given(ints, ints)
def test_xgcd_is_bezout(a, b):
    g, u, v = euclid_xgcd(Z, a, b)
    assert u * a + v * b == g == math.gcd(a, b)


@given(polys, polys)
def test_poly_gcd_divides_both_and_is_monic(a, b):
    g = euclid_gcd(QX, a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
    else:
        assert g.leading == 1
        assert (a % g).is_zero and (b % g).is_zero


@given(polys, polys)
def test_poly_xgcd_is_bezout(a, b):
    g, u, v = euclid_xgcd(QX, a, b)
    assert u * a + v * b == g


@given(ints, ints)
def test_mutual_divisibility_means_same_associate(a, b):
    if divides(Z, a, b) and divides(Z, b, a):
        assert abs(a) == abs(b)


@given(st.lists(ints, max_size=5))
def test_combination_witness_integers(gens):
    g = canonical_generator(Z, gens)
    w = combination_witness(Z, gens)
    assert len(w) == len(gens)
    assert sum(c * x for c, x in zip(w, gens)) == g
    for x in gens:
        assert divides(Z, g, x)


@given(st.lists(st.integers(0, 11), max_size=4))
def test_combination_witness_modular(gens):
    ring = ModularRing(12)
    g = canonical_generator(ring, gens)
    w = combination_witness(ring, gens)
    assert sum(c * x for c, x in zip(w, gens)) % 12 == g
    assert g == 0 or 12 % g == 0  # the canonical generator divides the modulus
    for x in gens:
        assert divides(ring, g, x)


@given(st.lists(polys, max_size=3))
def test_combination_witness_polynomials(gens):
    g = canonical_generator(QX, gens)
    w = combination_witness(QX, gens)
    acc = Poly()
    for c, x in zip(w, gens):
        acc = acc + c * x
    assert acc == g


@pytest.mark.parametrize("ring", [Z, Z6, QX], ids=str)
@pytest.mark.parametrize("value", [True, False, "x", 2.5])
def test_coerce_rejects_non_elements_and_bools(ring, value):
    # a bool multiplier used to render as rho(2;True;1), which does not parse back
    with pytest.raises(TypeError):
        ring.coerce(value)
    with pytest.raises(TypeError):
        morphism_new(ideal_new(ring, [2]), ideal_new(ring, [1]), value)


@given(st.integers(0, 5), st.integers(0, 5))
def test_modular_divides_matches_scan(a, b):
    assert divides(Z6, a, b) == any((r * a) % 6 == b for r in range(6))


def test_ideal_generators_refuse_a_modulus_above_the_limit():
    with pytest.raises(ListingTooLarge, match=f"above the limit {MAX_OBJECT_MODULUS} "):
        ModularRing(MAX_OBJECT_MODULUS + 1).ideal_generators()
    # a modulus too long to print once raised ValueError from the message
    with pytest.raises(ListingTooLarge, match="^zmod:<5001 digits> has a modulus"):
        ModularRing(10**5000).ideal_generators()
    # trial division up to sqrt(10^23) runs for hours, so the direct call is
    # made in a child process that a timeout can stop
    code = ("from idealcat.errors import ListingTooLarge\n"
            "from idealcat.rings import ModularRing\n"
            "try:\n"
            "    ModularRing(10**23).ideal_generators()\n"
            "except ListingTooLarge as exc:\n"
            "    print(exc)\n")
    src = str(Path(idealcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (f"zmod:{10**23} has a modulus above the limit {MAX_OBJECT_MODULUS} "
                           "for listing its ideals\n")


@pytest.mark.parametrize("max_abs", [5, 10**30])
def test_qpoly_canonical_unit_is_the_leading_coefficient_as_a_constant(max_abs):
    rng = random.Random(max_abs)
    for _ in range(300):
        degree = rng.randint(0, 4)
        p = Poly([Q(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))
                  for _ in range(degree + 1)])
        unit, expected = QX.canonical_unit(p), Poly.const(p.leading) if p else QX.one
        assert unit == expected and unit.coeffs == expected.coeffs


@pytest.mark.parametrize("max_degree", range(5))
def test_qpoly_random_element_draw_is_pinned(max_degree):
    # the sampled verifier's references rest on this exact draw and rng order
    for seed in range(100):
        rng = random.Random(seed)
        clone = random.Random()
        clone.setstate(rng.getstate())
        p = QX.random_element(rng, 5, max_degree)
        degree = clone.randint(0, max_degree)
        want = Poly([Q(clone.randint(-4, 4), clone.randint(1, 3)) for _ in range(degree + 1)])
        assert p == want and p.coeffs == want.coeffs
        assert rng.getstate() == clone.getstate()
