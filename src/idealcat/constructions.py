"""Categorical constructions: zero object, kernels, cokernels, biproducts,
canonical factorization and idempotent splitting.

Cokernels follow the rule that only the zero map and surjective morphisms
admit one: the zero map gets (cod, identity), a surjection gets the zero
object, anything else raises CokernelDoesNotExist. Whether a refused
morphism nevertheless has a categorical cokernel is audited separately by
the verifier's exhaustive search and reported as a discrepancy, never
constructed here.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    CokernelDoesNotExist,
    HomMismatch,
    NontrivialIntersection,
    NotIdempotent,
)
from .ideals import (
    Ideal,
    Morphism,
    _require_same_ring,
    compose,
    hom_add,
    identity,
    ideal_new,
    ideal_sum,
    image,
    inclusion,
    intersect,
    kernel_generator,
    morphism_new,
    zero_morphism,
)
from .rings import Ring


class KernelPair(NamedTuple):
    object: Ideal
    inclusion: Morphism


class CokernelPair(NamedTuple):
    object: Ideal
    projection: Morphism


class Factorization(NamedTuple):
    epi: Morphism
    inclusion: Morphism


class Splitting(NamedTuple):
    object: Ideal
    retraction: Morphism
    section: Morphism


class Biproduct(NamedTuple):
    """Simultaneous product and coproduct of two ideals with projections
    p1, p2 and injections i1, i2 satisfying p1 i1 = 1, p2 i2 = 1,
    p1 i2 = 0, p2 i1 = 0 and i1 p1 + i2 p2 = 1."""

    object: Ideal
    p1: Morphism
    p2: Morphism
    i1: Morphism
    i2: Morphism


def zero_object(ring: Ring) -> Ideal:
    """The zero ideal: both initial and terminal."""
    return ideal_new(ring)


def kernel(f: Morphism) -> KernelPair:
    """The exact zero-set {x in dom : f(x) = 0} with its inclusion."""
    K = ideal_new(f.dom.ring, [kernel_generator(f)])
    return KernelPair(K, inclusion(K, f.dom))


def cokernel(f: Morphism) -> CokernelPair:
    """Cokernel for the zero map and surjections; refuses anything else."""
    if f.is_zero:
        return CokernelPair(f.cod, identity(f.cod))
    im = image(f)
    if im == f.cod:
        trivial = zero_object(f.dom.ring)
        return CokernelPair(trivial, zero_morphism(f.cod, trivial))
    raise CokernelDoesNotExist(
        f"{f} is neither zero nor surjective (image {im}, codomain {f.cod})"
    )


def _crt_one_zero(m1: int, m2: int) -> int:
    # smallest x >= 0 with x = 1 (mod m1) and x = 0 (mod m2); needs gcd(m1, m2) = 1
    return m2 * pow(m2, -1, m1)


def biproduct(A: Ideal, B: Ideal) -> Biproduct:
    """A + B with projections and injections; requires trivial intersection.

    Over Z_n with both ideals nonzero, the projection multipliers solve
    s1 = 1 (mod n/a), s1 = 0 (mod n/b) by the Chinese remainder theorem;
    n/a and n/b are coprime exactly when the intersection is trivial. Over
    Z and Q[x] trivial intersection forces one side to be the zero ideal
    and the maps degenerate to identities and zero morphisms.
    """
    _require_same_ring(A, B)
    meet = intersect(A, B)
    if not meet.is_zero:
        raise NontrivialIntersection(f"{A} and {B} intersect in {meet}")
    obj = ideal_sum(A, B)
    i1 = inclusion(A, obj)
    i2 = inclusion(B, obj)
    if A.is_zero or B.is_zero:
        p1 = identity(obj) if B.is_zero else zero_morphism(obj, A)
        p2 = identity(obj) if not B.is_zero else zero_morphism(obj, B)
        return Biproduct(obj, p1, p2, i1, i2)
    m1, m2 = A._modulus, B._modulus
    p1 = morphism_new(obj, A, _crt_one_zero(m1, m2))
    p2 = morphism_new(obj, B, _crt_one_zero(m2, m1))
    return Biproduct(obj, p1, p2, i1, i2)


def pair_into_product(bp: Biproduct, f1: Morphism, f2: Morphism) -> Morphism:
    """The unique h with p1 h = f1 and p2 h = f2, as i1 f1 + i2 f2."""
    if f1.dom != f2.dom:
        raise HomMismatch(f"{f1} and {f2} have different domains")
    if f1.cod != bp.p1.cod or f2.cod != bp.p2.cod:
        raise HomMismatch("codomains do not match the biproduct components")
    return hom_add(compose(bp.i1, f1), compose(bp.i2, f2))


def copair_from_coproduct(bp: Biproduct, g1: Morphism, g2: Morphism) -> Morphism:
    """The unique h with h i1 = g1 and h i2 = g2, as g1 p1 + g2 p2."""
    if g1.cod != g2.cod:
        raise HomMismatch(f"{g1} and {g2} have different codomains")
    if g1.dom != bp.i1.dom or g2.dom != bp.i2.dom:
        raise HomMismatch("domains do not match the biproduct components")
    return hom_add(compose(g1, bp.p1), compose(g2, bp.p2))


def canonical_factorization(f: Morphism) -> Factorization:
    """f = j q with q the corestriction onto image(f) and j an inclusion."""
    im = image(f)
    q = morphism_new(f.dom, im, f.multiplier)
    return Factorization(q, inclusion(im, f.cod))


def split_idempotent(e: Morphism) -> Splitting:
    """Split e = f g through its image, with g f the identity.

    Returns (B, g, f) from the canonical factorization e = f g: B = image(e),
    g the corestriction of e onto B and f the inclusion of B into the
    endomorphism's object.
    """
    if e.dom != e.cod:
        raise NotIdempotent(f"{e} is not an endomorphism")
    if compose(e, e) != e:
        raise NotIdempotent(f"{e} composed with itself differs from itself")
    q, j = canonical_factorization(e)
    return Splitting(q.cod, q, j)
