"""Exact-arithmetic category of ideals of Z, Z_n and Q[x].

Objects are principal ideals, morphisms are multiplication maps with
canonical multipliers, hom-sets are abelian groups, and the classical
constructions (zero object, kernels, restricted cokernels, biproducts,
canonical factorization, idempotent splitting) come with an exhaustive
verifier and a brute-force hom oracle for the finite backends.
"""

from .constructions import (
    Biproduct,
    CokernelPair,
    Factorization,
    KernelPair,
    Splitting,
    biproduct,
    canonical_factorization,
    cokernel,
    copair_from_coproduct,
    kernel,
    pair_into_product,
    split_idempotent,
    zero_object,
)
from .errors import (
    CokernelDoesNotExist,
    DoesNotExist,
    FractionOverNonDomain,
    HomMismatch,
    IdealCatError,
    InfiniteObjectClass,
    InvalidMultiplier,
    ListingTooLarge,
    NontrivialIntersection,
    NotASubideal,
    NotComposable,
    NotIdempotent,
    NotInDomain,
    ParseError,
    RingMismatch,
    ZeroDenominator,
)
from .fracfield import Fraction, format_fraction, fraction_reduce, parse_fraction
from .hasse import covering_pairs, poset_dot
from .ideals import (
    FULL,
    PAPER,
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
    identity,
    image,
    inclusion,
    intersect,
    is_epi,
    is_inclusion,
    is_mono,
    is_subideal,
    ideal_sum,
    kernel_generator,
    morphism_new,
    zero_morphism,
)
from .poly import Poly, format_poly, parse_poly
from .rings import (
    INTEGERS,
    RATIONAL_POLYNOMIALS,
    IntegerRing,
    ModularRing,
    RationalPolynomialRing,
    Ring,
    RingElement,
    canonical_generator,
    combination_witness,
    divides,
    euclid_gcd,
    euclid_xgcd,
    ring_from_literal,
)
from .verifier import (
    Bounds,
    CheckResult,
    LawTable,
    Report,
    STANDARD_LAWS,
    audit_existence,
    brute_force_hom_set,
    check_axioms,
    law_mutations,
    morphism_table,
    search_biproduct,
    search_cokernel,
    verify_ring,
)

__version__ = "0.1.0"
