"""Value semantics of Ideal, Morphism, HomSet and Biproduct: repr text,
equality and hashing that ignore the given generators, immutability,
copy, deepcopy and pickle round trips before and after the first hash,
and the derived slots kept out of repr, equality and __reduce__."""

import copy
import pickle

import pytest

from idealcat.constructions import biproduct
from idealcat.formats import parse_ideal, parse_morphism
from idealcat.ideals import (Ideal, compose, enumerate_hom, enumerate_objects, ideal_new,
                             image, morphism_new)
from idealcat.rings import ring_from_literal

ZMOD12 = ring_from_literal("zmod:12")
QPOLY = ring_from_literal("qpoly")

_I4 = "Ideal(ring=ModularRing(12), generator=4)"
_I3 = "Ideal(ring=ModularRing(12), generator=3)"
_I1 = "Ideal(ring=ModularRing(12), generator=1)"


def _m(dom: str, cod: str, mult: str) -> str:
    return f"Morphism(dom={dom}, cod={cod}, multiplier=Fraction(zmod:12, '{mult}'))"


def _zmod12_values():
    A, B = ideal_new(ZMOD12, [4]), ideal_new(ZMOD12, [3])
    return {
        "ideal": A,
        "morphism": morphism_new(B, ideal_new(ZMOD12, [1]), 5),
        "homset": enumerate_hom(A, B),
        "biproduct": biproduct(A, B),
    }


def _qpoly_values():
    A, B = parse_ideal(QPOLY, "<x>"), parse_ideal(QPOLY, "<x^2>")
    return {
        "ideal": ideal_new(QPOLY, [A.generator, B.generator]),
        "morphism": parse_morphism(QPOLY, "rho(x^2-1;(1)/(x-1);x+1)"),
        "homset": enumerate_hom(A, B),
        "biproduct": biproduct(A, parse_ideal(QPOLY, "<0>")),
    }


def test_repr_text_over_zmod12():
    values = _zmod12_values()
    assert repr(values["ideal"]) == _I4
    assert repr(values["morphism"]) == _m(_I3, _I1, "1")
    assert repr(values["homset"]) == (
        f"HomSet(dom={_I4}, cod={_I3}, base=Fraction(zmod:12, '0'), modulus=3, "
        f"elements=({_m(_I4, _I3, '0')},))")
    assert repr(values["biproduct"]) == (
        f"Biproduct(object={_I1}, p1={_m(_I1, _I4, '4')}, p2={_m(_I1, _I3, '9')}, "
        f"i1={_m(_I4, _I1, '1')}, i2={_m(_I3, _I1, '1')})")


def test_repr_text_over_qpoly():
    values = _qpoly_values()
    assert repr(values["homset"]) == (
        "HomSet(dom=Ideal(ring=RationalPolynomialRing(), generator=Poly('1x')), "
        "cod=Ideal(ring=RationalPolynomialRing(), generator=Poly('1x^2')), "
        "base=Fraction(qpoly, '1x'), modulus=None, elements=None)")


def test_equality_and_hash_ignore_the_given_generators():
    built, plain = ideal_new(ZMOD12, [8, 4]), ideal_new(ZMOD12, [4])
    assert built.given_generators == (8, 4) and plain.given_generators == (4,)
    assert built == plain and hash(built) == hash(plain)
    assert repr(built) == repr(plain) == _I4
    assert Ideal(ZMOD12, 4) == plain and Ideal(ZMOD12, 4).given_generators == ()


def test_equality_needs_the_same_class():
    values = _zmod12_values()
    A, f = values["ideal"], values["morphism"]
    assert A != (A.ring, A.generator)
    assert f != (f.dom, f.cod, f.multiplier)
    assert A != f and f != A
    assert len({A, ideal_new(ZMOD12, [4, 8]), f, f}) == 2


def test_a_generator_must_be_canonical():
    with pytest.raises(ValueError, match="not a canonical generator"):
        Ideal(ZMOD12, 8)


@pytest.mark.parametrize("kind", ["ideal", "morphism", "homset", "biproduct"])
def test_assignment_raises_attribute_error(kind):
    value = _zmod12_values()[kind]
    name = {"ideal": "generator", "morphism": "multiplier", "homset": "base",
            "biproduct": "p1"}[kind]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("values", [_zmod12_values, _qpoly_values], ids=["zmod:12", "qpoly"])
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_values(values, duplicate):
    for kind, value in values().items():
        unhashed = duplicate(value)
        hash(value)  # an Ideal keeps its hash from now on
        for twin in (unhashed, duplicate(value)):
            assert type(twin) is type(value), kind
            assert twin == value and hash(twin) == hash(value), kind
            assert repr(twin) == repr(value), kind
    ideal = values()["ideal"]
    assert duplicate(ideal).given_generators == ideal.given_generators


@pytest.mark.parametrize("values", [_zmod12_values, _qpoly_values], ids=["zmod:12", "qpoly"])
def test_cached_fields_stay_out_of_repr_eq_and_reduce(values):
    A, f = values()["ideal"], values()["morphism"]
    hash(A)
    assert A.__reduce__() == (Ideal, (A.ring, A.generator, A.given_generators))
    assert f.__reduce__() == (type(f), (f.dom, f.cod, f.multiplier))
    assert "_modulus" not in repr(A) and "_hash" not in repr(A)
    fresh = Ideal(A.ring, A.generator)  # nothing cached yet
    assert fresh == A and A == fresh and hash(fresh) == hash(A)
    assert repr(fresh) == repr(A)



@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_values_of_the_trusted_builders_round_trip(duplicate):
    """Ideals and morphisms the module builds without the public constructors'
    checks (ideal_new, image, enumerate_objects, compose) rebuild through
    those constructors unchanged, given generators included."""
    objects = enumerate_objects(ZMOD12)
    f = morphism_new(objects[1], ideal_new(ZMOD12, [2]), 10)
    back = morphism_new(f.cod, objects[1], 1)
    values = [*objects, ideal_new(ZMOD12, [20, -3]), image(f), f, compose(back, f),
              ideal_new(QPOLY, [parse_ideal(QPOLY, "<2x+2>").generator])]
    for value in values:
        twin = duplicate(value)
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
    assert repr(image(f)) == "Ideal(ring=ModularRing(12), generator=2)"
    assert duplicate(image(f)).given_generators == image(f).given_generators == (10,)
    assert repr(compose(back, f)) == _m(_I1, _I1, "10")
