"""Exception types shared across the library.

Subclasses of DoesNotExist signal that a requested construction provably
does not exist for the given input; the CLI maps those to exit code 2 and
everything else under IdealCatError to exit code 1.
"""


class IdealCatError(Exception):
    """Base class for all library errors."""


class ParseError(IdealCatError):
    """Malformed ring, element, fraction, ideal or morphism literal."""


class RingMismatch(IdealCatError):
    """Operands belong to different rings, or the backend is unsupported."""


class ZeroDenominator(IdealCatError):
    """Fraction with a zero denominator."""


class FractionOverNonDomain(IdealCatError):
    """A Z_n fraction has the denominator 1; every other one is refused."""


class InvalidMultiplier(IdealCatError):
    """Multiplier does not map the domain ideal into the codomain ideal."""


class NotComposable(IdealCatError):
    """compose(g, f) requires f.cod == g.dom."""


class HomMismatch(IdealCatError):
    """Hom-set operation on morphisms with different domain or codomain."""


class NotInDomain(IdealCatError):
    """Element lies outside the morphism's domain ideal."""


class InfiniteObjectClass(IdealCatError):
    """Enumeration requested over a backend with infinitely many ideals."""


class ListingTooLarge(IdealCatError):
    """An explicit listing would exceed its documented size limit."""


class DoesNotExist(IdealCatError):
    """A construction that provably does not exist for the given input."""


class NotASubideal(DoesNotExist):
    """inclusion(A, B) requires A to be contained in B."""


class CokernelDoesNotExist(DoesNotExist):
    """Nonzero non-surjective morphisms are refused a cokernel."""


class NontrivialIntersection(DoesNotExist):
    """Biproducts require the two ideals to intersect in the zero ideal."""


class NotIdempotent(DoesNotExist):
    """Splitting applies to endomorphisms e with e composed with e equal to e."""
