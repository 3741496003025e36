import pytest

from idealcat.constructions import (
    biproduct,
    canonical_factorization,
    cokernel,
    copair_from_coproduct,
    kernel,
    pair_into_product,
    split_idempotent,
    zero_object,
)
from idealcat.errors import (
    CokernelDoesNotExist,
    HomMismatch,
    NontrivialIntersection,
    NotASubideal,
    NotComposable,
    NotIdempotent,
    NotInDomain,
    ParseError,
    RingMismatch,
)
from idealcat.ideals import (
    apply,
    compose,
    contains_element,
    enumerate_hom,
    enumerate_objects,
    hom_add,
    ideal_elements,
    ideal_new,
    identity,
    image,
    inclusion,
    is_epi,
    is_inclusion,
    morphism_new,
    zero_morphism,
)
from idealcat.formats import ideal_to_json
from idealcat.poly import parse_poly
from idealcat.rings import INTEGERS, RATIONAL_POLYNOMIALS, ModularRing

Z = INTEGERS
QX = RATIONAL_POLYNOMIALS
Z6 = ModularRing(6)


def zi(*gens):
    return ideal_new(Z, gens)


def z6i(*gens):
    return ideal_new(Z6, gens)


def test_zero_object():
    assert zero_object(Z).is_zero
    assert zero_object(Z6).is_zero
    O = zero_object(Z6)
    for B in enumerate_objects(Z6):
        assert len(enumerate_hom(O, B).elements) == 1
        assert len(enumerate_hom(B, O).elements) == 1


def test_kernel_examples():
    K, j = kernel(morphism_new(z6i(1), z6i(2), 2))
    assert K == z6i(3)
    assert {x for x in range(6) if (2 * x) % 6 == 0} == set(ideal_elements(K))
    A = zi(4)
    K, j = kernel(zero_morphism(A, zi(3)))
    assert K == A and j == identity(A)
    K, j = kernel(morphism_new(zi(2), zi(3), 3))
    assert K.is_zero
    assert compose(morphism_new(zi(2), zi(3), 3), j).is_zero


def test_kernel_zero_set_z6_exhaustive():
    for A in enumerate_objects(Z6):
        for B in enumerate_objects(Z6):
            for f in enumerate_hom(A, B).elements:
                K, j = kernel(f)
                zero_set = {x for x in ideal_elements(A) if apply(f, x) == 0}
                assert zero_set == set(ideal_elements(K))
                assert is_inclusion(j) and j.dom == K and j.cod == A


def test_cokernel_zero_map():
    E, p = cokernel(zero_morphism(zi(2), zi(3)))
    assert E == zi(3) and p == identity(zi(3))


def test_cokernel_surjection():
    f = morphism_new(z6i(1), z6i(2), 2)
    assert image(f) == z6i(2)  # {0, 2, 4}
    E, p = cokernel(f)
    assert E.is_zero and p.is_zero


def test_cokernel_refusal():
    f = morphism_new(zi(2), zi(3), 3)
    assert image(f) == zi(6) != zi(3)
    with pytest.raises(CokernelDoesNotExist):
        cokernel(f)


def test_biproduct_z6():
    bp = biproduct(z6i(2), z6i(3))
    assert bp.object == z6i(1)
    assert bp.p1.literal == "rho(1;4;2)"
    assert bp.p2.literal == "rho(1;3;3)"
    assert bp.i1.literal == "rho(2;1;1)"
    assert bp.i2.literal == "rho(3;1;1)"
    # all five identities, and pointwise over every element of Z_6
    assert compose(bp.p1, bp.i1) == identity(z6i(2))
    assert compose(bp.p2, bp.i2) == identity(z6i(3))
    assert compose(bp.p1, bp.i2).is_zero
    assert compose(bp.p2, bp.i1).is_zero
    total = hom_add(compose(bp.i1, bp.p1), compose(bp.i2, bp.p2))
    assert total == identity(bp.object)
    for x in range(6):
        assert (apply(bp.p1, x) + apply(bp.p2, x)) % 6 == x


def test_biproduct_degenerate():
    A = zi(7)
    bp = biproduct(zi(0), A)
    assert bp.object == A
    assert bp.p2 == identity(A) and bp.i2 == identity(A)
    assert bp.p1.is_zero and bp.i1.is_zero
    bp = biproduct(z6i(0), z6i(0))
    assert bp.object.is_zero


def test_biproduct_refusals():
    with pytest.raises(NontrivialIntersection):
        biproduct(zi(2), zi(3))  # 6 lies in the intersection
    with pytest.raises(NontrivialIntersection):
        biproduct(z6i(1), z6i(1))
    with pytest.raises(RingMismatch):
        biproduct(zi(2), z6i(3))


def test_pairing():
    bp = biproduct(z6i(2), z6i(3))
    one = z6i(1)
    f1 = morphism_new(one, z6i(2), 4)
    f2 = morphism_new(one, z6i(3), 3)
    h = pair_into_product(bp, f1, f2)
    assert h == identity(one)  # 4 + 3 = 1 mod 6
    assert compose(bp.p1, h) == f1 and compose(bp.p2, h) == f2
    z = zero_morphism(one, z6i(2))
    z2 = zero_morphism(one, z6i(3))
    assert pair_into_product(bp, z, z2).is_zero
    h = pair_into_product(bp, identity(z6i(2)), zero_morphism(z6i(2), z6i(3)))
    assert h == bp.i1
    with pytest.raises(HomMismatch):
        pair_into_product(bp, f2, f1)


def test_copairing():
    bp = biproduct(z6i(2), z6i(3))
    assert copair_from_coproduct(bp, bp.i1, bp.i2) == identity(bp.object)
    g1 = identity(z6i(2))
    g2 = zero_morphism(z6i(3), z6i(2))
    h = copair_from_coproduct(bp, g1, g2)
    assert h == bp.p1
    assert compose(h, bp.i1) == g1 and compose(h, bp.i2) == g2


def test_pairing_and_copairing_refuse_mismatched_maps():
    bp = biproduct(z6i(2), z6i(3))
    f1, f2 = identity(z6i(2)), zero_morphism(z6i(2), z6i(3))
    with pytest.raises(HomMismatch, match="different domains"):
        pair_into_product(bp, f1, zero_morphism(z6i(1), z6i(3)))
    with pytest.raises(HomMismatch, match="codomains do not match"):
        pair_into_product(bp, f1, zero_morphism(z6i(2), z6i(2)))
    g1, g2 = identity(z6i(2)), zero_morphism(z6i(3), z6i(2))
    with pytest.raises(HomMismatch, match="different codomains"):
        copair_from_coproduct(bp, g1, zero_morphism(z6i(3), z6i(1)))
    with pytest.raises(HomMismatch, match="domains do not match"):
        copair_from_coproduct(bp, zero_morphism(z6i(3), z6i(2)), g2)
    assert pair_into_product(bp, f1, f2) == bp.i1 and copair_from_coproduct(bp, g1, g2) == bp.p1


def test_factorization_examples():
    q, j = canonical_factorization(morphism_new(zi(2), zi(3), 3))
    assert q.literal == "rho(2;3;6)" and j.literal == "rho(6;1;3)"
    assert compose(j, q) == morphism_new(zi(2), zi(3), 3)
    assert is_epi(q) and is_inclusion(j)
    q, j = canonical_factorization(identity(zi(5)))
    assert q == identity(zi(5)) and j == identity(zi(5))
    q, j = canonical_factorization(morphism_new(z6i(1), z6i(1), 2))
    assert q.literal == "rho(1;2;2)" and j.literal == "rho(2;1;1)"


def test_factorization_of_zero_map():
    q, j = canonical_factorization(zero_morphism(zi(2), zi(3)))
    assert q.cod.is_zero and is_epi(q)
    assert compose(j, q).is_zero


def test_split_idempotent_examples():
    e = morphism_new(z6i(1), z6i(1), 4)  # 16 = 4 mod 6
    B, g, f = split_idempotent(e)
    assert B == z6i(2)
    assert g.literal == "rho(1;4;2)" and f.literal == "rho(2;1;1)"
    assert compose(g, f) == identity(B)
    assert compose(f, g) == e
    A = zi(9)
    B, g, f = split_idempotent(identity(A))
    assert (B, g, f) == (A, identity(A), identity(A))
    B, g, f = split_idempotent(zero_morphism(A, A))
    assert B.is_zero and g.is_zero and f.is_zero
    assert compose(g, f) == identity(B)


def test_split_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        split_idempotent(morphism_new(z6i(1), z6i(1), 2))  # 4 != 2 mod 6
    with pytest.raises(NotIdempotent):
        split_idempotent(morphism_new(zi(2), zi(1), 1))  # not an endomorphism


def test_constructions_over_polynomials():
    x2 = ideal_new(QX, [parse_poly("x^2-1")])
    x1 = ideal_new(QX, [parse_poly("x-1")])
    f = morphism_new(x1, x2, parse_poly("x+1"))
    K, j = kernel(f)
    assert K.is_zero
    q, jinc = canonical_factorization(f)
    assert compose(jinc, q) == f
    assert image(f) == ideal_new(QX, [parse_poly("x^2-1")])
    E, p = cokernel(f)  # image equals codomain, so the cokernel is trivial
    assert E.is_zero
    bp = biproduct(ideal_new(QX), x1)
    assert bp.object == x1


# 5,001 digits: above sys.get_int_max_str_digits(), so no literal renders it
HUGE = 10**5000
HUGE_A, HUGE_B = ideal_new(Z, [HUGE]), ideal_new(Z, [HUGE + 1])


@pytest.mark.parametrize("refusal, error", [
    (lambda: cokernel(morphism_new(HUGE_A, HUGE_A, 2)), CokernelDoesNotExist),
    (lambda: biproduct(HUGE_A, ideal_new(Z, [2 * HUGE])), NontrivialIntersection),
    (lambda: inclusion(HUGE_A, HUGE_B), NotASubideal),
    (lambda: split_idempotent(morphism_new(HUGE_A, HUGE_B, 0)), NotIdempotent),
    (lambda: compose(identity(HUGE_A), identity(HUGE_B)), NotComposable),
    (lambda: apply(identity(HUGE_A), HUGE + 1), NotInDomain),
], ids=["cokernel", "biproduct", "inclusion", "split_idempotent", "compose", "apply"])
def test_a_refusal_keeps_its_type_when_its_values_are_too_long_to_print(refusal, error):
    # the message once rendered literals, whose ParseError replaced the refusal
    with pytest.raises(error, match="an integer of 5001 digits"):
        refusal()


def test_a_value_too_long_to_print_has_no_literal_but_a_description():
    f = morphism_new(HUGE_A, HUGE_A, HUGE)
    for value in (HUGE_A, f):
        with pytest.raises(ParseError):
            value.literal
    assert str(HUGE_A) == "<an integer of 5001 digits>"
    assert str(f) == "rho({0};{0};{0})".format("an integer of 5001 digits")
    big = ideal_new(QX, [parse_poly("x^4096")])
    assert str(image(morphism_new(big, big, parse_poly("x")))) == "<a polynomial of degree 4097>"


HUGE_RING = ModularRing(HUGE)
_HUGE_INT = "<an integer of 5001 digits>"


@pytest.mark.parametrize("value, expected", [
    (HUGE_A, f"Ideal(ring=IntegerRing(), generator={_HUGE_INT})"),
    (morphism_new(HUGE_A, HUGE_A, HUGE), "Morphism(dom={0}, cod={0}, multiplier={1})".format(
        f"Ideal(ring=IntegerRing(), generator={_HUGE_INT})",
        "Fraction(z, 'an integer of 5001 digits')")),
    (morphism_new(HUGE_A, HUGE_A, HUGE).multiplier, "Fraction(z, 'an integer of 5001 digits')"),
    (HUGE_RING, f"ModularRing({_HUGE_INT})"),
], ids=["Ideal", "Morphism", "Fraction", "ModularRing"])
def test_repr_describes_a_field_too_long_to_print(value, expected):
    # repr() once raised ValueError (int) or ParseError (a Fraction's literal)
    assert repr(value) == expected


def test_a_modulus_too_long_to_print_has_no_literal_but_a_parse_error():
    # the literal once raised a raw ValueError, so JSON output did too
    with pytest.raises(ParseError, match="^zmod:<5001 digits> has a modulus too long"):
        HUGE_RING.literal
    with pytest.raises(ParseError):
        ideal_to_json(ideal_new(HUGE_RING, [1]))
    assert str(HUGE_RING) == "zmod:<5001 digits>"
    assert repr(ideal_new(HUGE_RING, [1])) == f"Ideal(ring=ModularRing({_HUGE_INT}), generator=1)"
