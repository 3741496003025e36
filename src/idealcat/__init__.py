"""Exact-arithmetic category of ideals of Z, Z_n and Q[x].

Objects are principal ideals, morphisms are multiplication maps with
canonical multipliers, hom-sets are abelian groups, and the classical
constructions (zero object, kernels, restricted cokernels, biproducts,
canonical factorization, idempotent splitting) come with an exhaustive
verifier and a brute-force hom oracle for the finite backends. The
verifier's names are re-exported here but load on first use.
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

# The verifier and its names load on first access (PEP 562): importing it costs
# more than the rest of the package, and only verification and the oracle use it.
_LAZY = frozenset({
    "verifier",
    "Bounds",
    "CheckResult",
    "LawTable",
    "Report",
    "STANDARD_LAWS",
    "audit_existence",
    "brute_force_hom_set",
    "check_axioms",
    "law_mutations",
    "morphism_table",
    "search_biproduct",
    "search_cokernel",
    "verify_ring",
})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # "from . import verifier" would call this hook again

    verifier = import_module(".verifier", __name__)
    value = globals()[name] = verifier if name == "verifier" else getattr(verifier, name)
    return value  # cached above, so later reads skip this hook


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY)


__version__ = "0.1.0"
# a star import still brings in every name it did when the verifier loaded eagerly
__all__ = sorted({n for n in globals() if not n.startswith("_")} | _LAZY)
