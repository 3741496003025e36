"""Where L_R sits among the abelian-category axioms (README, "L_(Z_n) among
the abelian-category axioms").

Over Z_n, n <= 60, every map of the category is tested: L_(Z_n) is
balanced, normal and conormal, but not additive. Over Z and Q[x] one map
each shows that L_Z and L_Q[x] are neither balanced nor normal."""

import pytest

from idealcat.constructions import biproduct, cokernel, kernel
from idealcat.errors import CokernelDoesNotExist, InvalidMultiplier, NontrivialIntersection
from idealcat.formats import parse_morphism
from idealcat.ideals import compose, ideal_new, identity, image, is_epi, is_mono, morphism_new
from idealcat.rings import INTEGERS, RATIONAL_POLYNOMIALS, ModularRing
from idealcat.verifier import (
    _FiniteWorld,
    _is_cokernel,
    _residue,
    _search_cokernel,
    _universal,
    search_biproduct,
)

MODULI = range(2, 61)


@pytest.fixture(scope="module")
def worlds():
    return {n: _FiniteWorld(ModularRing(n)) for n in MODULI}


def _cancels(w, f, left: bool) -> bool:
    """Literal cancellation by compose: g -> f g (left) or g -> g f is one to
    one on every hom-set it applies to."""
    for X in w.objects:
        homset = w.hom[(X, f.dom)] if left else w.hom[(f.cod, X)]
        composites = {compose(f, g) if left else compose(g, f) for g in homset}
        if len(composites) != len(homset):
            return False
    return True


@pytest.mark.parametrize("n", MODULI)
def test_mono_and_epi_are_literal_cancellation(worlds, n):
    w = worlds[n]
    for f in w.morphisms:
        assert is_mono(f) == _cancels(w, f, True), f
        assert is_epi(f) == _cancels(w, f, False), f


@pytest.mark.parametrize("n", MODULI)
def test_balanced_every_mono_epi_has_an_inverse(worlds, n):
    w = worlds[n]
    for f in w.morphisms:
        if is_mono(f) and is_epi(f):
            assert any(compose(g, f) == identity(f.dom) and compose(f, g) == identity(f.cod)
                       for g in w.hom[(f.cod, f.dom)]), f


@pytest.mark.parametrize("n", MODULI)
def test_normal_every_mono_is_the_kernel_of_its_cokernel(worlds, n):
    w = worlds[n]
    for f in w.morphisms:
        if is_mono(f):
            found = _search_cokernel(w, f)
            assert found, f
            p = found[0].projection
            # p kills f, and f factors every killer of p exactly once
            assert not _residue(p, f) and _universal(w, f.dom, f, True, p) is None, f


@pytest.mark.parametrize("n", MODULI)
def test_conormal_every_epi_is_the_cokernel_of_its_kernel(worlds, n):
    w = worlds[n]
    for f in w.morphisms:
        if is_epi(f):
            assert _is_cokernel(w, kernel(f).inclusion, f.cod, f), f


@pytest.mark.parametrize("n", MODULI)
def test_not_additive_one_plus_one_has_no_biproduct(n):
    one = ideal_new(ModularRing(n), [1])
    with pytest.raises(NontrivialIntersection):
        biproduct(one, one)
    assert search_biproduct(one, one) == []


@pytest.mark.parametrize("ring, literal", [
    (INTEGERS, "rho(2;1;1)"), (RATIONAL_POLYNOMIALS, "rho(1x;1;1)")])
def test_over_a_domain_a_mono_epi_need_not_be_an_iso_or_a_kernel(ring, literal):
    f = parse_morphism(ring, literal)
    assert is_mono(f) and is_epi(f)
    # an inverse g has multiplier 1, as g f = 1 and multipliers multiply in
    # a field of fractions; 1 does not map <1> into the smaller ideal
    with pytest.raises(InvalidMultiplier):
        morphism_new(f.cod, f.dom, 1)
    # over a domain only the zero map kills f, and its kernel is all of
    # cod f, which f, not onto, is not; the cokernel rule refuses f
    assert kernel(morphism_new(f.cod, f.cod, 0)).object == f.cod != image(f)
    with pytest.raises(CokernelDoesNotExist):
        cokernel(f)


def test_the_counts_over_every_map_up_to_60(worlds):
    maps = [f for n in MODULI for f in worlds[n].morphisms]
    monos = sum(is_mono(f) for f in maps)
    epis = sum(is_epi(f) for f in maps)
    both = sum(is_mono(f) and is_epi(f) for f in maps)
    assert (len(maps), monos, epis, both) == (7229, 3013, 3013, 1829)
