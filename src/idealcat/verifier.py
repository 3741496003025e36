"""Axiom verification, the brute-force hom oracle, and existence audits.

Each law is written once over the cases a world supplies: over Z_n every
case (all composable chains, hom-sets and elements), over Z and Q[x]
seeded draws, ``samples`` per check or ``samples // 5`` for the costlier
ones. What only a whole hom-set can show (membership, literal
cancellation) the law asks of the world; checks whose laws really differ
stay apart. Checks are independent pure computations in a fixed order, so
a report is deterministic for a given (ring, bounds, seed). Bilinearity is
checked as left and right distributivity, each over triples; with zero in
every hom-set that is equivalent to the quartic law.

The brute-force oracle rebuilds hom-sets as raw linear function tables
from first principles, independent of the Morphism machinery. Over Z_n
every universal property is one cone test, ``_universal``. The existence
audits put each construction a rule returns through that test (a miss is
a failure) and search Z_n exhaustively only where the rule refuses: a
construction the search certifies there is reported with status
``discrepancy`` and a machine-checkable witness, and does not fail the
suite.

``law_mutations`` documents five single-law defects (composition,
addition, kernel, factorization image, splitting corestriction); each is
caught by at least one check on Z_6 and Z_12. Over Z and Q[x] the first
four are caught as well. The splitting defect is not: over a domain the
only idempotents are 0 and 1, and on those the defect agrees with the rule.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable

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
    HomMismatch,
    InvalidMultiplier,
    NontrivialIntersection,
    NotComposable,
    NotIdempotent,
    RingMismatch,
)
from .fracfield import Fraction
from .ideals import (
    FULL,
    Ideal,
    Morphism,
    _raw_morphism,
    _require_same_ring,
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
    morphism_new,
    zero_morphism,
)
from .rings import Ring


@dataclass(frozen=True)
class Bounds:
    """Sampling and enumeration configuration for the verifier.

    ``max_abs`` bounds sampled integer generators and multiplier factors
    over ``z`` (``qpoly`` draws its coefficients from fixed ranges),
    ``samples`` the number of sampled cases per check over the infinite
    backends, and ``search_ceiling`` the largest modulus for which the
    exhaustive cokernel/biproduct searches run during verify_ring.
    """

    seed: int = 0
    max_abs: int = 25
    samples: int = 500
    max_degree: int = 2
    search_ceiling: int = 12

    def __post_init__(self):
        if self.max_abs < 1 or self.samples < 1 or self.max_degree < 0:
            raise ValueError(f"need max_abs >= 1, samples >= 1, max_degree >= 0: {self}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "discrepancy"
    witness: dict | str | None = None


@dataclass
class Report:
    """Named verdicts for one ring; a fail always carries a witness."""

    ring: Ring
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def totals(self) -> dict[str, int]:
        t = {"pass": 0, "fail": 0, "discrepancy": 0}
        for c in self.checks:
            t[c.status] += 1
        return t

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.literal,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "totals": self.totals,
        }


@dataclass(frozen=True)
class LawTable:
    """The operations the checks exercise; swap entries in to test mutants."""

    compose: Callable[[Morphism, Morphism], Morphism]
    add: Callable[[Morphism, Morphism], Morphism]
    kernel: Callable[[Morphism], KernelPair]
    factorize: Callable[[Morphism], Factorization]
    split: Callable[[Morphism], Splitting]


STANDARD_LAWS = LawTable(
    compose=compose,
    add=hom_add,
    kernel=kernel,
    factorize=canonical_factorization,
    split=split_idempotent,
)


def law_mutations() -> dict[str, LawTable]:
    """Five documented single-law defects for mutation testing."""

    def compose_adds(g: Morphism, f: Morphism) -> Morphism:
        if f.cod != g.dom:
            raise NotComposable("mutant compose on non-composable pair")
        return _raw_morphism(f.dom, g.cod, f.multiplier + g.multiplier)

    def add_multiplies(f: Morphism, g: Morphism) -> Morphism:
        if f.dom != g.dom or f.cod != g.cod:
            raise HomMismatch("mutant add on mismatched pair")
        return _raw_morphism(f.dom, f.cod, f.multiplier * g.multiplier)

    def kernel_whole_domain(f: Morphism) -> KernelPair:
        return KernelPair(f.dom, identity(f.dom))

    def factor_skips_image(f: Morphism) -> Factorization:
        return Factorization(
            _raw_morphism(f.dom, f.cod, f.multiplier), identity(f.cod)
        )

    def split_identity_retraction(e: Morphism) -> Splitting:
        if e.dom != e.cod or compose(e, e) != e:
            raise NotIdempotent("mutant split on non-idempotent")
        im = image(e)
        return Splitting(
            im, _raw_morphism(e.dom, im, Fraction.one(e.dom.ring)), inclusion(im, e.dom)
        )

    return {
        "compose-adds-multipliers": replace(STANDARD_LAWS, compose=compose_adds),
        "add-multiplies-multipliers": replace(STANDARD_LAWS, add=add_multiplies),
        "kernel-whole-domain": replace(STANDARD_LAWS, kernel=kernel_whole_domain),
        "factorization-skips-image": replace(STANDARD_LAWS, factorize=factor_skips_image),
        "splitting-identity-retraction": replace(STANDARD_LAWS, split=split_identity_retraction),
    }


# ---------------------------------------------------------------------------
# brute-force hom oracle

FunctionTable = tuple[tuple[int, int], ...]


def _require_finite(ring: Ring) -> Ring:
    if not ring.characteristic:
        raise RingMismatch(f"exhaustive enumeration needs Z_n, got {ring}")
    return ring


def brute_force_hom_set(A: Ideal, B: Ideal) -> list[FunctionTable]:
    """All additive, homogeneous function tables A -> B over Z_n.

    Candidate images y of the generator a must satisfy (n/a)*y = 0; each
    candidate induces the full table k*a -> k*y, which is then filtered by
    literal additivity and homogeneity over every element pair. This never
    touches the Morphism machinery.
    """
    ring = _require_finite(A.ring)
    _require_same_ring(A, B)
    n = ring.characteristic
    a = A.generator
    if a == 0:
        return [((0, 0),)]
    m = n // a
    tables = []
    for y in ideal_elements(B):
        if (m * y) % n:
            continue
        table = {(k * a) % n: (k * y) % n for k in range(m)}
        if _table_is_linear(table, n):
            tables.append(tuple(sorted(table.items())))
    return tables


def _table_is_linear(table: dict[int, int], n: int) -> bool:
    xs = list(table)
    for x1 in xs:
        for x2 in xs:
            if table[(x1 + x2) % n] != (table[x1] + table[x2]) % n:
                return False
    for r in range(n):
        for x in xs:
            if table[(r * x) % n] != (r * table[x]) % n:
                return False
    return True


def morphism_table(f: Morphism) -> FunctionTable:
    """The function table a morphism induces on its (finite) domain."""
    return tuple((x, apply(f, x)) for x in ideal_elements(f.dom))


# ---------------------------------------------------------------------------
# case sources: every case of Z_n, or seeded draws over Z and Q[x]


class _FiniteWorld:
    """Precomputed objects, hom-sets and ideal elements of the Z_n category;
    each case source yields every case and ignores ``few``."""

    triples_are_chains = False

    def __init__(self, ring: Ring, laws: LawTable):
        self.ring = ring
        self.laws = laws
        self.objects = enumerate_objects(ring)
        self.hom: dict[tuple[Ideal, Ideal], tuple[Morphism, ...]] = {
            (A, B): enumerate_hom(A, B).elements
            for A in self.objects
            for B in self.objects
        }
        self.morphisms = [f for homset in self.hom.values() for f in homset]
        self.elements = {A: ideal_elements(A) for A in self.objects}
        self.members = {key: frozenset(homset) for key, homset in self.hom.items()}

    def chains(self, length: int, few: bool = False):
        """Every composable chain (f1, ..., fk), f(i+1) after f(i)."""
        chains = ((f,) for f in self.morphisms)
        for _ in range(length - 1):
            chains = (c + (g,) for c in chains
                      for C in self.objects for g in self.hom[(c[-1].cod, C)])
        return chains

    def partners(self, f: Morphism):
        """Every morphism parallel to f."""
        return self.hom[(f.dom, f.cod)]

    def idempotents(self):
        return (e for A in self.objects for e in self.hom[(A, A)] if compose(e, e) == e)

    def ideal_triples(self, few: bool = False):
        """Every triple of objects."""
        return product(self.objects, repeat=3)

    def points(self, A: Ideal):
        return self.elements[A]

    def member(self, f: Morphism) -> bool:
        """Whether f is in its enumerated hom-set."""
        return f in self.members[(f.dom, f.cod)]

    def expected_kernel(self, f: Morphism) -> Ideal:
        """The ideal generated by the zero set of f."""
        return ideal_new(self.ring, [x for x in self.elements[f.dom] if apply(f, x) == 0])

    def cancellable(self, f: Morphism, left: bool) -> bool:
        """Literal cancellation: g -> f g (left) or g -> g f (right) is
        injective on every hom-set it applies to."""
        for X in self.objects:
            gs = self.hom[(X, f.dom)] if left else self.hom[(f.cod, X)]
            if len({compose(f, g) if left else compose(g, f) for g in gs}) != len(gs):
                return False
        return True

    def right_divisors(self, j: Morphism, target: Morphism) -> list[Morphism]:
        """Every h with j after h equal to target."""
        return [h for h in self.hom[(target.dom, j.dom)] if compose(j, h) == target]


class _SampledWorld:
    """Seeded draws over an infinite backend: each case source yields
    ``samples`` draws, or ``samples // 5`` with ``few`` or where it says so."""

    triples_are_chains = True

    def __init__(self, ring: Ring, bounds: Bounds, mode: str, laws: LawTable):
        self.ring = ring
        self.bounds = bounds
        self.mode = mode
        self.laws = laws
        self.rng = random.Random(f"{bounds.seed}:{ring.literal}:{mode}")
        self.bases: dict[tuple[Ideal, Ideal], Fraction] = {}

    def random_element(self, nonzero: bool = False):
        while True:
            x = self.ring.random_element(self.rng, self.bounds.max_abs, self.bounds.max_degree)
            if not (nonzero and self.ring.is_zero(x)):
                return x

    def random_ideal(self, nonzero: bool = False) -> Ideal:
        if not nonzero and self.rng.random() < 0.1:
            return ideal_new(self.ring)
        return ideal_new(self.ring, [self.random_element(nonzero=True)])

    def hom_base(self, A: Ideal, B: Ideal) -> Fraction:
        """enumerate_hom(A, B).base, computed once per pair in this world."""
        base = self.bases.get((A, B))
        if base is None:
            base = self.bases[(A, B)] = enumerate_hom(A, B, self.mode).base
        return base

    def hom_element(self, A: Ideal, B: Ideal, factor=None) -> Morphism:
        base = self.hom_base(A, B)
        if factor is None:
            factor = self.random_element()
        scaled = base * Fraction.from_element(self.ring, self.ring.coerce(factor))
        return _raw_morphism(A, B, scaled)

    def draws(self, few: bool) -> range:
        return range(self.bounds.samples // 5 if few else self.bounds.samples)

    def chains(self, length: int, few: bool = False):
        for _ in self.draws(few):
            objs = [self.random_ideal() for _ in range(length + 1)]
            yield tuple(self.hom_element(objs[i], objs[i + 1]) for i in range(length))

    def partners(self, f: Morphism):
        """One drawn morphism parallel to f."""
        return (self.hom_element(f.dom, f.cod),)

    def idempotents(self):
        """0 and 1 on a drawn ideal: over a domain the only idempotents."""
        for _ in self.draws(True):
            A = self.random_ideal()
            yield zero_morphism(A, A)
            yield identity(A)

    def ideal_triples(self, few: bool = False):
        """Chains (c k1 k2) <= (c k1) <= (c), so both A and B lie in C."""
        ring = self.ring
        for _ in self.draws(few):
            c, k1, k2 = (self.random_element(nonzero=True) for _ in range(3))
            ck1 = ring.mul(c, k1)
            yield (ideal_new(ring, [ring.mul(ck1, k2)]), ideal_new(ring, [ck1]),
                   ideal_new(ring, [c]))

    def points(self, A: Ideal):
        return (self.ring.mul(self.ring.coerce(self.random_element()), A.generator),)

    def member(self, f: Morphism) -> bool:
        return True  # drawn as a multiple of its hom-set's base

    def expected_kernel(self, f: Morphism) -> Ideal:
        """Over a domain a nonzero multiplication map is injective."""
        return f.dom if f.multiplier.is_zero else zero_object(self.ring)

    def cancellable(self, f: Morphism, left: bool) -> bool:
        return True  # needs whole hom-sets; mono-/epi-criterion sample it instead

    def right_divisors(self, j: Morphism, target: Morphism) -> list[Morphism]:
        """j is injective, so only the multiplier 1 can solve j h = target."""
        h = morphism_new(target.dom, j.dom, Fraction.one(self.ring))
        return [h] if compose(j, h) == target else []


def _universal(w: _FiniteWorld, apex: Ideal, legs: tuple[Morphism, ...], limit: bool,
               admits: Callable[[tuple], bool] | None = None) -> tuple | None:
    """The first admitted cone that the legs do not factor exactly once, or None.

    Universality (Mac Lane, CWM III.1): at every object C, a limit's h -> (leg h)
    maps hom(C, apex) one to one onto the admitted tuples of maps C -> cod leg,
    and a colimit's h -> (h leg) maps hom(apex, C) onto those of dom leg -> C.
    Hits are counted once per C; cones are visited object by object in hom-set
    order, and ``admits`` (default: every cone) picks the cones that must be hit.
    """
    for C in w.objects:  # each leg's maps share dom and cod, so multipliers tell them apart
        if limit:
            hits = Counter(tuple(compose(leg, h).multiplier for leg in legs)
                           for h in w.hom[(C, apex)])
            cones = product(*(w.hom[(C, leg.cod)] for leg in legs))
        else:
            hits = Counter(tuple(compose(h, leg).multiplier for leg in legs)
                           for h in w.hom[(apex, C)])
            cones = product(*(w.hom[(leg.dom, C)] for leg in legs))
        for cone in cones:
            if hits[tuple(g.multiplier for g in cone)] != 1 and (admits is None or admits(cone)):
                return cone
    return None


# ---------------------------------------------------------------------------
# laws shared by both worlds


def _compose_associative(w):
    laws = w.laws
    for f, g, h in w.chains(3):
        if laws.compose(h, laws.compose(g, f)) != laws.compose(laws.compose(h, g), f):
            return {"f": f.literal, "g": g.literal, "h": h.literal}
    return None


def _identity_neutral(w):
    laws = w.laws
    for (f,) in w.chains(1):
        if laws.compose(identity(f.cod), f) != f:
            return {"f": f.literal, "law": "1 after f"}
        if laws.compose(f, identity(f.dom)) != f:
            return {"f": f.literal, "law": "f after 1"}
    return None


def _hom_abelian(w):
    laws = w.laws
    for (f,) in w.chains(1):
        zero, neg = zero_morphism(f.dom, f.cod), hom_neg(f)
        if not w.member(zero):
            return {"hom": f"{f.dom.literal}->{f.cod.literal}", "law": "zero missing"}
        if not w.member(neg):
            return {"f": f.literal, "law": "negation closure"}
        if laws.add(f, zero) != f:
            return {"f": f.literal, "law": "zero neutral"}
        if laws.add(f, neg) != zero:
            return {"f": f.literal, "law": "inverse"}
        for g in w.partners(f):
            s = laws.add(f, g)
            if not w.member(s):
                return {"f": f.literal, "g": g.literal, "law": "closure"}
            if s != laws.add(g, f):
                return {"f": f.literal, "g": g.literal, "law": "commutativity"}
            for h in w.partners(f):
                if laws.add(s, h) != laws.add(f, laws.add(g, h)):
                    return {"f": f.literal, "g": g.literal, "h": h.literal, "law": "associativity"}
    return None


def _compose_bilinear(w):
    """g(f + f') = g f + g f' and (g + g') f = g f + g' f. Every hom-set
    holds zero (hom-abelian-group), so these two cubic laws are equivalent
    to (g + g')(f + f') = g f + g f' + g' f + g' f'."""
    laws = w.laws
    for f, g in w.chains(2):
        gf = laws.compose(g, f)
        for f2 in w.partners(f):
            if laws.compose(g, laws.add(f, f2)) != laws.add(gf, laws.compose(g, f2)):
                return {"f": f.literal, "f'": f2.literal, "g": g.literal,
                        "law": "left distributivity"}
        for g2 in w.partners(g):
            if laws.compose(laws.add(g, g2), f) != laws.add(gf, laws.compose(g2, f)):
                return {"f": f.literal, "g": g.literal, "g'": g2.literal,
                        "law": "right distributivity"}
    return None


def _compose_pointwise(w):
    for f, g in w.chains(2):
        gf = w.laws.compose(g, f)
        for x in w.points(f.dom):
            if apply(gf, x) != apply(g, apply(f, x)):
                return {"f": f.literal, "g": g.literal, "x": w.ring.format_element(x)}
    return None


def _add_pointwise(w):
    for (f,) in w.chains(1):
        for g in w.partners(f):
            s = w.laws.add(f, g)
            for x in w.points(f.dom):
                if apply(s, x) != w.ring.add(apply(f, x), apply(g, x)):
                    return {"f": f.literal, "g": g.literal, "x": w.ring.format_element(x)}
    return None


def _kernel_zero_set(w):
    for (f,) in w.chains(1):
        K, j = w.laws.kernel(f)
        expected = w.expected_kernel(f)
        if K != expected:
            return {"f": f.literal, "kernel": K.literal, "expected": expected.literal}
        if j.dom != K or j.cod != f.dom or not is_inclusion(j):
            return {"f": f.literal, "law": "kernel inclusion shape"}
        if compose(f, j) != zero_morphism(K, f.cod):
            return {"f": f.literal, "law": "f after inclusion is zero"}
        for x in w.points(f.dom):
            if w.ring.is_zero(apply(f, x)) != contains_element(K, x):
                return {"f": f.literal, "x": w.ring.format_element(x)}
    return None


def _factorization(w):
    for (f,) in w.chains(1):
        q, j = w.laws.factorize(f)
        im = image(f)
        if q.dom != f.dom or q.cod != im or j.dom != im or j.cod != f.cod:
            return {"f": f.literal, "law": "factor shapes", "q": q.literal, "j": j.literal}
        if not is_inclusion(j):
            return {"f": f.literal, "j": j.literal, "law": "j is an inclusion"}
        if compose(j, q) != f:
            return {"f": f.literal, "law": "j after q recovers f"}
        if not is_epi(q):
            return {"f": f.literal, "q": q.literal, "law": "q is epi"}
        if not w.cancellable(q, left=False):
            return {"f": f.literal, "q": q.literal, "law": "q right-cancellation"}
    return None


def _subobject_preorder(w):
    """Reflexive, antisymmetric (also against the generator's negative) and
    transitive; a world whose triples are chains needs all three
    inclusions to hold."""
    ring = w.ring
    for A, B, C in w.ideal_triples():
        ab, bc = is_subideal(A, B), is_subideal(B, C)
        if (w.triples_are_chains or ab and bc) and not (ab and bc and is_subideal(A, C)):
            return {"A": A.literal, "B": B.literal, "C": C.literal, "law": "transitivity"}
        if not is_subideal(A, A):
            return {"A": A.literal, "law": "reflexivity"}
        for other in (B, ideal_new(ring, [ring.neg(A.generator)])):
            if A != other and is_subideal(other, A) and is_subideal(A, other):
                return {"A": A.literal, "B": other.literal, "law": "antisymmetry"}
    return None


def _inclusion_axioms(w):
    for A, B, C in w.ideal_triples(few=True):
        if not (w.triples_are_chains or is_subideal(A, C) and is_subideal(B, C)):
            continue
        j_ac, j_bc = inclusion(A, C), inclusion(B, C)
        if not is_mono(j_ac):
            return {"j": j_ac.literal, "law": "inclusions are mono"}
        if any(apply(j_ac, x) != x for x in w.points(A)):
            return {"j": j_ac.literal, "law": "inclusion acts as identity"}
        # right division: only inclusions solve j(B,C) h = j(A,C), and j(A,B) does
        divisors = w.right_divisors(j_bc, j_ac)
        if is_subideal(A, B):
            if compose(j_bc, inclusion(A, B)) != j_ac:
                return {"A": A.literal, "B": B.literal, "C": C.literal,
                        "law": "inclusions compose to inclusions"}
            if not divisors:
                return {"j1": j_ac.literal, "j2": j_bc.literal, "law": "right division"}
        for h in divisors:
            if not is_inclusion(h):
                return {"j1": j_ac.literal, "j2": j_bc.literal, "h": h.literal,
                        "law": "right division"}
    return None


def _idempotent_splitting(w):
    for e in w.idempotents():
        B, g, f = w.laws.split(e)
        if compose(g, f) != identity(B):
            return {"e": e.literal, "law": "retraction after section is identity"}
        if compose(f, g) != e:
            return {"e": e.literal, "law": "section after retraction is e"}
        twice = hom_add(e, e)
        if compose(twice, twice) != twice:
            try:
                w.laws.split(twice)
            except NotIdempotent:
                continue
            return {"e": twice.literal, "law": "non-idempotent must be refused"}
    return None


def _idempotent_kernel(w):
    for e in w.idempotents():
        K, j = w.laws.kernel(e)
        if compose(e, j) != zero_morphism(K, e.dom):
            return {"e": e.literal, "law": "idempotent kernel"}
    return None


# ---------------------------------------------------------------------------
# exhaustive-only laws for Z_n


def _fin_zero_object(w: _FiniteWorld):
    O = w.objects[0]
    if not O.is_zero:
        return {"law": "zero ideal missing from object list"}
    for B in w.objects:
        into, out = w.hom[(B, O)], w.hom[(O, B)]
        if len(into) != 1 or not into[0].is_zero:
            return {"object": B.literal, "law": "terminal"}
        if len(out) != 1 or not out[0].is_zero:
            return {"object": B.literal, "law": "initial"}
    return None


def _fin_equality_pointwise(w: _FiniteWorld):
    for (A, B), homset in w.hom.items():
        tables = {morphism_table(f) for f in homset}
        if len(tables) != len(homset):
            return {
                "hom": f"{A.literal}->{B.literal}",
                "law": "distinct canonical morphisms share a function table",
            }
    return None


def _fin_hom_oracle(w: _FiniteWorld):
    for (A, B), homset in w.hom.items():
        ours = sorted(morphism_table(f) for f in homset)
        brute = sorted(brute_force_hom_set(A, B))
        if ours != brute:
            return {
                "hom": f"{A.literal}->{B.literal}",
                "enumerated": len(ours),
                "brute_force": len(brute),
            }
    return None


def _fin_kernel_universal(w: _FiniteWorld):
    for f in w.morphisms:
        K, j = w.laws.kernel(f)
        cone = _universal(w, K, (j,), True, lambda c: compose(f, c[0]).is_zero)
        if cone is not None:
            return {"f": f.literal, "j'": cone[0].literal, "law": "unique factorization"}
    return None


def _fin_cokernel_universal(w: _FiniteWorld):
    for f in w.morphisms:
        try:
            E, p = cokernel(f)
        except CokernelDoesNotExist:
            continue
        if compose(p, f) != zero_morphism(f.dom, E):
            return {"f": f.literal, "law": "projection after f is zero"}
        if _universal(w, E, (p,), False, lambda c: compose(c[0], f).is_zero) is not None:
            return {"f": f.literal, "cokernel": E.literal, "law": "unique factorization"}
    return None


def _fin_mono_cancellation(w: _FiniteWorld):
    for f in w.morphisms:
        if is_mono(f) != w.cancellable(f, left=True):
            return {"f": f.literal, "is_mono": is_mono(f)}
    return None


def _fin_epi_cancellation(w: _FiniteWorld):
    for f in w.morphisms:
        if is_epi(f) != w.cancellable(f, left=False):
            return {"f": f.literal, "is_epi": is_epi(f)}
    return None


def _fin_biproduct(w: _FiniteWorld):
    for i, A in enumerate(w.objects):
        for B in w.objects[i:]:
            if not intersect(A, B).is_zero:
                try:
                    biproduct(A, B)
                except NontrivialIntersection:
                    continue
                return {"A": A.literal, "B": B.literal,
                        "law": "nontrivial intersection must be refused"}
            bp = biproduct(A, B)
            checks = (
                (compose(bp.p1, bp.i1), identity(A), "p1 i1 = 1"),
                (compose(bp.p2, bp.i2), identity(B), "p2 i2 = 1"),
                (compose(bp.p1, bp.i2), zero_morphism(B, A), "p1 i2 = 0"),
                (compose(bp.p2, bp.i1), zero_morphism(A, B), "p2 i1 = 0"),
                (hom_add(compose(bp.i1, bp.p1), compose(bp.i2, bp.p2)),
                 identity(bp.object), "i1 p1 + i2 p2 = 1"),
            )
            for got, expected, law in checks:
                if got != expected:
                    return {"A": A.literal, "B": B.literal, "law": law}
            for C in w.objects:
                for f1, f2 in product(w.hom[(C, A)], w.hom[(C, B)]):
                    h = pair_into_product(bp, f1, f2)
                    if compose(bp.p1, h) != f1 or compose(bp.p2, h) != f2:
                        return {"f1": f1.literal, "f2": f2.literal, "law": "pairing"}
                for g1, g2 in product(w.hom[(A, C)], w.hom[(B, C)]):
                    h = copair_from_coproduct(bp, g1, g2)
                    if compose(h, bp.i1) != g1 or compose(h, bp.i2) != g2:
                        return {"g1": g1.literal, "g2": g2.literal, "law": "copairing"}
            if _universal(w, bp.object, (bp.p1, bp.p2), True) is not None:
                return {"A": A.literal, "B": B.literal, "law": "pairing uniqueness"}
            if _universal(w, bp.object, (bp.i1, bp.i2), False) is not None:
                return {"A": A.literal, "B": B.literal, "law": "copairing uniqueness"}
    return None


# ---------------------------------------------------------------------------
# sampled-only laws for Z and Q[x]


def _smp_zero_object(w: _SampledWorld):
    O = zero_object(w.ring)
    for _ in w.draws(True):
        B = w.random_ideal(nonzero=True)
        if not enumerate_hom(O, B, w.mode).base.is_zero:
            return {"object": B.literal, "law": "initial"}
        if not enumerate_hom(B, O, w.mode).base.is_zero:
            return {"object": B.literal, "law": "terminal"}
        try:
            morphism_new(B, O, Fraction.one(w.ring))
            return {"object": B.literal, "law": "only the zero map enters the zero ideal"}
        except InvalidMultiplier:
            pass
    return None


def _smp_equality_pointwise(w: _SampledWorld):
    for _ in w.draws(False):
        A = w.random_ideal(nonzero=True)
        B = w.random_ideal()
        f, g = w.hom_element(A, B), w.hom_element(A, B)
        if (f == g) != (apply(f, A.generator) == apply(g, A.generator)):
            return {"f": f.literal, "g": g.literal}
    return None


def _smp_kernel_universal(w: _SampledWorld):
    for (f,) in w.chains(1, few=True):
        K, j = w.laws.kernel(f)
        K2 = w.random_ideal()
        if f.multiplier.is_zero:
            j2 = w.hom_element(K2, f.dom)
        else:
            j2 = zero_morphism(K2, f.dom)
        if compose(f, j2) != zero_morphism(K2, f.cod):
            continue
        h = morphism_new(K2, K, j2.multiplier)
        if compose(j, h) != j2:
            return {"f": f.literal, "j'": j2.literal, "law": "existence"}
        base = w.hom_base(K2, K)
        for k in (1, 2, -1):
            shift = base * Fraction.from_element(w.ring, w.ring.coerce(k))
            if shift.is_zero:
                continue
            other = _raw_morphism(K2, K, h.multiplier + shift)
            if compose(j, other) == j2:
                return {"f": f.literal, "j'": j2.literal, "law": "uniqueness"}
    return None


def _smp_cokernel_rule(w: _SampledWorld):
    for _ in w.draws(True):
        A = w.random_ideal(nonzero=True)
        B = w.random_ideal(nonzero=True)
        zero = zero_morphism(A, B)
        E, p = cokernel(zero)
        if E != B or p != identity(B):
            return {"f": zero.literal, "law": "zero map gets (cod, identity)"}
        sample = w.hom_element(A, B, factor=w.random_element(nonzero=True))
        onto = morphism_new(A, image(sample), sample.multiplier)
        if not onto.is_zero:
            E, p = cokernel(onto)
            if not E.is_zero or p != zero_morphism(onto.cod, E):
                return {"f": onto.literal, "law": "surjection gets the zero object"}
        proper = w.hom_element(A, B, factor=w.ring.mul(
            w.ring.coerce(2), w.ring.coerce(w.random_element(nonzero=True))))
        if image(proper) == B or proper.is_zero:
            continue
        try:
            cokernel(proper)
            return {"f": proper.literal, "law": "nonzero non-surjection must be refused"}
        except CokernelDoesNotExist:
            pass
    return None


def _smp_mono_criterion(w: _SampledWorld):
    for (f,) in w.chains(1):
        expected = f.dom.is_zero or not f.multiplier.is_zero
        if is_mono(f) != expected:
            return {"f": f.literal, "is_mono": is_mono(f), "expected": expected}
        C = w.random_ideal(nonzero=True)
        g1 = w.hom_element(C, f.dom)
        g2 = w.hom_element(C, f.dom)
        if expected:
            if g1 != g2 and compose(f, g1) == compose(f, g2):
                return {"f": f.literal, "g1": g1.literal, "g2": g2.literal,
                        "law": "left cancellation"}
        elif not f.dom.is_zero:
            a, b = identity(f.dom), hom_add(identity(f.dom), identity(f.dom))
            if compose(f, a) != compose(f, b):
                return {"f": f.literal, "law": "zero map should not cancel"}
    return None


def _smp_epi_criterion(w: _SampledWorld):
    for (f,) in w.chains(1):
        expected = f.cod.is_zero or not f.multiplier.is_zero
        if is_epi(f) != expected:
            return {"f": f.literal, "is_epi": is_epi(f), "expected": expected}
        D = w.random_ideal(nonzero=True)
        g1 = w.hom_element(f.cod, D)
        g2 = w.hom_element(f.cod, D)
        if expected and g1 != g2 and compose(g1, f) == compose(g2, f):
            return {"f": f.literal, "g1": g1.literal, "g2": g2.literal,
                    "law": "right cancellation"}
    return None


# (name, exhaustive law, sampled law); None where only one world runs it.
# Each world keeps the check order of its own column.
_CHECKS = [
    ("compose-associative", _compose_associative, _compose_associative),
    ("identity-neutral", _identity_neutral, _identity_neutral),
    ("hom-abelian-group", _hom_abelian, _hom_abelian),
    ("compose-bilinear", _compose_bilinear, _compose_bilinear),
    ("zero-object-initial-terminal", _fin_zero_object, _smp_zero_object),
    ("compose-pointwise", _compose_pointwise, _compose_pointwise),
    ("add-pointwise", _add_pointwise, _add_pointwise),
    ("morphism-equality-pointwise", _fin_equality_pointwise, _smp_equality_pointwise),
    ("hom-oracle-agreement", _fin_hom_oracle, None),
    ("kernel-zero-set", _kernel_zero_set, _kernel_zero_set),
    ("kernel-universal", _fin_kernel_universal, _smp_kernel_universal),
    ("cokernel-universal", _fin_cokernel_universal, None),
    ("cokernel-rule", None, _smp_cokernel_rule),
    ("factorization-epi-inclusion", _factorization, _factorization),
    ("mono-left-cancellation", _fin_mono_cancellation, None),
    ("epi-right-cancellation", _fin_epi_cancellation, None),
    ("mono-criterion", None, _smp_mono_criterion),
    ("epi-criterion", None, _smp_epi_criterion),
    ("subobject-strict-preorder", _subobject_preorder, _subobject_preorder),
    ("inclusion-axioms", _inclusion_axioms, _inclusion_axioms),
    ("idempotent-splitting", _idempotent_splitting, _idempotent_splitting),
    ("idempotent-kernel", _idempotent_kernel, _idempotent_kernel),
    ("biproduct-laws", _fin_biproduct, None),
]


def check_axioms(
    ring: Ring,
    bounds: Bounds | None = None,
    mode: str = FULL,
    laws: LawTable | None = None,
) -> Report:
    """Run every axiom check for one ring; failures become report entries."""
    bounds = bounds or Bounds()
    laws = laws or STANDARD_LAWS
    exhaustive = ring.characteristic > 0
    world = _FiniteWorld(ring, laws) if exhaustive else _SampledWorld(ring, bounds, mode, laws)
    report = Report(ring)
    for name, finite_law, sampled_law in _CHECKS:
        fn = finite_law if exhaustive else sampled_law
        if fn is None:
            continue
        try:
            witness = fn(world)
        except Exception as exc:  # mutated laws may raise anywhere mid-check
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        status = "pass" if witness is None else "fail"
        report.checks.append(CheckResult(name, status, witness))
    return report


# ---------------------------------------------------------------------------
# existence audits: exhaustive searches vs the construction rules


def _is_cokernel(w: _FiniteWorld, f: Morphism, E: Ideal, p: Morphism) -> bool:
    """Whether p: cod f -> E is enumerated, kills f, and factors every map
    that kills f exactly once: whether _search_cokernel lists (E, p)."""
    return (p in w.members[(f.cod, E)] and compose(p, f).is_zero
            and _universal(w, E, (p,), False, lambda c: compose(c[0], f).is_zero) is None)


def _search_cokernel(w: _FiniteWorld, f: Morphism) -> list[CokernelPair]:
    return [CokernelPair(E, p) for E in w.objects for p in w.hom[(f.cod, E)]
            if _is_cokernel(w, f, E, p)]


def search_cokernel(f: Morphism) -> list[CokernelPair]:
    """Every (E, p) satisfying the full cokernel universal property, by
    exhaustive search over the Z_n category."""
    ring = _require_finite(f.dom.ring)
    return _search_cokernel(_FiniteWorld(ring, STANDARD_LAWS), f)


def _is_biproduct(w: _FiniteWorld, A: Ideal, B: Ideal, bp: Biproduct) -> bool:
    """Whether bp's maps are enumerated and both its cones are universal:
    whether _search_biproduct lists bp."""
    P = bp.object
    maps = ((bp.p1, (P, A)), (bp.p2, (P, B)), (bp.i1, (A, P)), (bp.i2, (B, P)))
    return (all(g in w.members[key] for g, key in maps)
            and _universal(w, P, (bp.p1, bp.p2), True) is None
            and _universal(w, P, (bp.i1, bp.i2), False) is None)


def _search_biproduct(w: _FiniteWorld, A: Ideal, B: Ideal) -> list[Biproduct]:
    found = []
    for P in w.objects:
        products = [(p1, p2) for p1, p2 in product(w.hom[(P, A)], w.hom[(P, B)])
                    if _universal(w, P, (p1, p2), True) is None]
        coproducts = [(i1, i2) for i1, i2 in product(w.hom[(A, P)], w.hom[(B, P)])
                      if _universal(w, P, (i1, i2), False) is None]
        found += [Biproduct(P, *ps, *cs) for ps in products for cs in coproducts]
    return found


def search_biproduct(A: Ideal, B: Ideal) -> list[Biproduct]:
    """Every tuple satisfying both universal properties, by exhaustive
    search over the Z_n category."""
    ring = _require_finite(A.ring)
    _require_same_ring(A, B)
    return _search_biproduct(_FiniteWorld(ring, STANDARD_LAWS), A, B)


def audit_existence(ring: Ring) -> list[CheckResult]:
    """Compare the cokernel and biproduct rules against exhaustive searches.

    Constructions the rules return must pass the search's own test (a miss
    is a failure); inputs the rules refuse are searched, and constructions
    found there are emitted as ``discrepancy`` entries with the witnesses.
    """
    w = _FiniteWorld(_require_finite(ring), STANDARD_LAWS)
    entries: list[CheckResult] = []

    agreement = None
    refused_but_found: list[tuple[Morphism, list[CokernelPair]]] = []
    for f in w.morphisms:
        try:
            E, p = cokernel(f)
        except CokernelDoesNotExist:
            found = _search_cokernel(w, f)
            if found:
                refused_but_found.append((f, found))
            continue
        if agreement is None and not _is_cokernel(w, f, E, p):
            agreement = {"f": f.literal, "law": "returned cokernel fails the search"}
    entries.append(CheckResult(
        "cokernel-rule-agreement", "pass" if agreement is None else "fail", agreement))
    for f, found in refused_but_found:
        entries.append(CheckResult(
            f"cokernel-converse[{f.literal}]",
            "discrepancy",
            {
                "morphism": f.literal,
                "rule": "refused: neither zero nor surjective",
                "found": [
                    {"object": E.literal, "projection": p.literal} for E, p in found
                ],
                "certificate": (
                    "each listed pair satisfies projection after f = 0 and factors "
                    "every zero-composing morphism uniquely, checked over all objects"
                ),
            },
        ))

    agreement = None
    pairs_found: list[tuple[Ideal, Ideal, int]] = []
    for i, A in enumerate(w.objects):
        for B in w.objects[i:]:
            if not intersect(A, B).is_zero:
                found = _search_biproduct(w, A, B)
                if found:
                    pairs_found.append((A, B, len(found)))
            elif agreement is None and not _is_biproduct(w, A, B, biproduct(A, B)):
                agreement = {"A": A.literal, "B": B.literal,
                             "law": "constructed biproduct fails the search"}
    entries.append(CheckResult(
        "biproduct-rule-agreement", "pass" if agreement is None else "fail", agreement))
    for A, B, count in pairs_found:
        entries.append(CheckResult(
            f"biproduct-converse[({A.literal},{B.literal})]",
            "discrepancy",
            {
                "pair": [A.literal, B.literal],
                "rule": "refused: nontrivial intersection",
                "found": count,
                "certificate": "tuples satisfy both universal properties exhaustively",
            },
        ))
    return entries


def verify_ring(
    ring: Ring,
    bounds: Bounds | None = None,
    mode: str = FULL,
    laws: LawTable | None = None,
) -> Report:
    """check_axioms plus, for Z_n within the search ceiling, the audits."""
    bounds = bounds or Bounds()
    report = check_axioms(ring, bounds, mode, laws)
    if 0 < ring.characteristic <= bounds.search_ceiling:
        report.checks.extend(audit_existence(ring))
    return report
