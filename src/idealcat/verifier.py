"""Axiom verification, the brute-force hom oracle, and existence audits.

Each law is written once over the cases a world supplies: over Z_n every
case (all composable chains, hom-sets and elements), over Z and Q[x]
seeded draws, ``samples`` per check or ``samples // 5``, at least one, for
the costlier ones. What only a whole hom-set can show (membership, literal
cancellation) the law asks of the world; checks whose laws really differ
stay apart. Checks are independent pure computations in a fixed order, so
a report is deterministic for a given (ring, bounds, seed). Bilinearity is
left and right distributivity; with zero in every hom-set that is
equivalent to the quartic law.

Over Z_n every hom-set is cyclic, generated by its ``enumerate_hom`` base,
and a map additive in each argument is fixed by its values on generators
(Mac Lane, CWM, on Ab-categories). So the cubic laws run first, in
quadratic time or less, on the world's generator copy, whose parallel
partners are the hom-set bases, whose points are the domain generators, and
whose chains, for a law additive in each map, are one base chain per tuple
of objects. That settles them once P1 holds: each hom-set is Z_k under
``laws.add`` (the orbit b, b+b, ... of its base lists it, x_i + x_j =
x_(i+j mod k) for every pair, ``zero_morphism`` is x_k and ``hom_neg(x_i)``
is x_(k-i)), and ``laws.compose`` sends (x_i, y_j) to z_(ijc mod m) for
one c with k c = l c = 0 mod m, and these c satisfy c_ABC c_ACD = c_BCD
c_ABD mod |Hom(A, D)| for every quadruple of objects. P1 alone is the group
law, bilinearity and, by that cocycle test, associativity. The two
pointwise laws, and the equality of maps with their function tables, rest
also on the brute-force oracle, which rebuilds hom-sets as raw linear
function tables from first principles, independent of the Morphism
machinery, by one linear test per table (``_table_is_linear``). When every
enumerated hom-set lists exactly its tables, each enumerated f: <a> -> B
sends a into B and f(k a) = k f(a), and no two enumerated maps share a
table. Then both sides of add-pointwise are additive in x and in the
partner, and both sides of compose-pointwise in f, in g and in x, so x = a
and the bases settle them. If a premise fails, a law fails on the
generator cases or anything raises, the law runs its full loop over every
case, so a report, passing or failing, is the one the full loops give. The
argument assumes, as every check does, that the laws and ``apply`` are
deterministic functions of morphism values.

Over Z_n a kernel and a cokernel are each tested by one cone test,
``_universal``: given the map f and one leg, it keys each killer of f and
each hit by one int, a residue, and at each object reports the first killer
whose key is not hit exactly once; only that map is read back. A biproduct
is tested by its five identities, p_i i_j = δ_ij and i1 p1 + i2 p2 = 1,
which in a preadditive category make both cones universal; the zero object
by counting one map into and one out of each object. The cokernel and the
biproduct property are each one predicate, ``_is_cokernel`` and
``_is_biproduct``, for the checks, the searches and the audits alike. The
audits put each construction a rule returns through it (a miss is a
failure) and search Z_n only at the maps the cokernel rule refuses: a
cokernel found there is a ``discrepancy`` with a machine-checkable witness
and does not fail the suite. Each search tries one apex, in closed form:
the ideal of order |cod f| / |im f| (proof at ``_search_cokernel``), and
A + B, none when A ∩ B != 0 (proof at ``_search_biproduct``), so the audits
do not search a pair the biproduct rule refuses. A ∩ B = 0 is read from the
orders, gcd(|A|, |B|) = 1, never from ``intersect``, which the rule under
test calls. The world computes the composites it takes itself (cone counts,
biproduct identities, the legs of pairings, cancellation, idempotents,
right divisors) as residues, ``_residue``, with no Fraction or Morphism
built, and keeps the residues of every hom-set in a column per object; the
laws the checks test still go through ``w.laws``.

Every Z_n world comes from one constructor, ``_FiniteWorld``, which lists
the ring's objects once and, from their orders alone, refuses a ring of
more than ``MAX_VERIFY_CASES`` composition cases before it lists any
hom-set: the checks, both searches and the audits are bounded by that one
count. ``brute_force_hom_set`` builds no world; ``ideal_elements`` bounds
it, and so does the size of its tables, |A| |B|, by the same count.
``verify_ring`` builds one world and hands it to ``check_axioms`` and
``audit_existence``. Sharing it is exact: the audits never read
``w.laws``, only residues and the standard ``cokernel`` and ``biproduct``.
The world runs the cokernel rule over every morphism once
(``cokernel_sweep``), so ``cokernel-universal`` and
``cokernel-rule-agreement`` share one computation. A rule that raises
there or in the biproduct audit gives a fail with an error witness, as a
law does, and never raises out of ``verify_ring``.

``law_mutations`` documents five single-law defects (composition,
addition, kernel, factorization image, splitting corestriction); each is
caught by at least one check on Z_6 and Z_12. Over Z and Q[x] the first
four are caught as well. The splitting defect is not: over a domain the
only idempotents are 0 and 1, and on those the defect agrees with the rule.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from copy import copy
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
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
    ListingTooLarge,
    NontrivialIntersection,
    NotComposable,
    NotIdempotent,
    RingMismatch,
)
from .fracfield import Fraction
from .ideals import (
    FULL,
    MAX_VERIFY_CASES,
    Ideal,
    Morphism,
    _check_mode,
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
    backends, and ``search_ceiling`` the largest modulus for which
    verify_ring runs the existence audits.
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


def _verdict(name: str, witness: dict | None) -> CheckResult:
    """A pass, or a fail with its witness."""
    return CheckResult(name, "pass" if witness is None else "fail", witness)


def _witness(law: Callable, *args) -> dict | None:
    """law(*args), or the witness of what it raises: mutated laws and rules
    may raise anywhere. Running out of memory is no verdict: it propagates."""
    try:
        return law(*args)
    except MemoryError:
        raise
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


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


def _composition_cases(orders: list[int]) -> int:
    """The cases of P1's composition table over Z_n, Sum_B (Sum_A
    |Hom(A, B)|)^2, from the orders of the objects alone: <a> is Z_(n/a),
    and |Hom(Z_k, Z_l)| = gcd(k, l). The sum stops once it passes
    MAX_VERIFY_CASES; <1>, the second object, alone adds sigma(n)^2."""
    cases = 0
    for l in orders:
        cases += sum(math.gcd(k, l) for k in orders) ** 2
        if cases > MAX_VERIFY_CASES:
            break
    return cases


def brute_force_hom_set(A: Ideal, B: Ideal) -> list[FunctionTable]:
    """All Z_n-linear function tables A -> B: for each y in B the table
    k*a -> k*y, k in range(n/a), kept when ``_table_is_linear`` passes.
    This never touches the Morphism machinery. It lists A and B with
    ``ideal_elements``, so an A or B of more than MAX_HOM_LISTING elements
    raises ListingTooLarge before any table is built, and so does a pair
    whose |B| tables of |A| entries exceed MAX_VERIFY_CASES in all."""
    ring = _require_finite(A.ring)
    _require_same_ring(A, B)
    n = ring.characteristic
    a = A.generator
    ys = ideal_elements(B)
    if a == 0:
        return [((0, 0),)]
    xs = ideal_elements(A)  # k*a for k in range(n/a), in order
    entries = len(xs) * len(ys)
    if entries > MAX_VERIFY_CASES:
        raise ListingTooLarge(f"the hom tables {A} -> {B} over {ring} take {entries} "
                              f"entries, above the limit {MAX_VERIFY_CASES}")
    tables = []
    for y in ys:
        table = {x: (k * y) % n for k, x in enumerate(xs)}
        if _table_is_linear(table, a, n):
            tables.append(tuple(sorted(table.items())))
    return tables


def _table_is_linear(table: dict[int, int], a: int, n: int) -> bool:
    """f(x + a) = f(x) + f(a) for every x in <a>.

    Induction on k gives f(x + k a) = f(x) + k f(a) for every x; with x = 0
    and f(0) = 0 (k = 0 in the table) that is f(k a) = k f(a), so
    f(x + x') = f(x) + f(x') for every pair: f is additive and, over Z_n,
    where r x is x + ... + x, linear. A table k a -> k y that is not a
    well-defined map fails at x = (m - 1) a, m = n/a, where the test reads
    f(0) = m y.
    """
    fa = table[a]
    return all(table[(x + a) % n] == (fx + fa) % n for x, fx in table.items())


def morphism_table(f: Morphism) -> FunctionTable:
    """The function table a morphism induces on its (finite) domain; a domain
    of more than MAX_HOM_LISTING elements raises ListingTooLarge, as
    ``ideal_elements`` does."""
    return tuple((x, apply(f, x)) for x in ideal_elements(f.dom))


# ---------------------------------------------------------------------------
# case sources: every case of Z_n, or seeded draws over Z and Q[x]


class _FiniteWorld:
    """Precomputed objects, hom-sets (with their bases and, per object, the
    columns of hom-sets into and out of it with their residues) and ideal
    elements of the Z_n category; each case source yields every case and
    ignores ``few``. Its generator copy (``on_bases``) keeps the morphisms
    and composable chains, but gives parallel partners on bases, points on
    generators, and base chains to a law additive in each map. A ring that
    is not Z_n raises RingMismatch; one of more than MAX_VERIFY_CASES
    composition cases, counted from the orders of the objects it lists
    once, raises ListingTooLarge before any hom-set is listed."""

    triples_are_chains = False
    on_bases = False

    def __init__(self, ring: Ring, laws: LawTable = STANDARD_LAWS):
        self.objects = enumerate_objects(_require_finite(ring))
        cases = _composition_cases([A._modulus for A in self.objects])
        if cases > MAX_VERIFY_CASES:
            raise ListingTooLarge(f"verifying {ring} takes at least {cases} composition "
                                  f"cases, above the limit {MAX_VERIFY_CASES}")
        self.ring = ring
        self.laws = laws
        homsets = {(A, B): enumerate_hom(A, B) for A in self.objects for B in self.objects}
        self.hom: dict[tuple[Ideal, Ideal], tuple[Morphism, ...]] = {
            key: hs.elements for key, hs in homsets.items()}
        self.base = {key: _raw_morphism(*key, hs.base) for key, hs in homsets.items()}
        self.morphisms = [f for homset in self.hom.values() for f in homset]
        residues = {key: tuple(f.multiplier.num for f in homset)
                    for key, homset in self.hom.items()}
        # the (C, residues, maps) of hom(C, X) and of hom(X, C) for each C, in object order
        self.into = {X: [(C, residues[(C, X)], self.hom[(C, X)]) for C in self.objects]
                     for X in self.objects}
        self.out_of = {X: [(C, residues[(X, C)], self.hom[(X, C)]) for C in self.objects]
                       for X in self.objects}
        self.elements = {A: ideal_elements(A) for A in self.objects}
        self.members = {key: frozenset(homset) for key, homset in self.hom.items()}
        self.settled: dict[Callable, dict | None] = {}

    def certifies(self, *laws: Callable) -> bool:
        """Whether P1 and then each premise or law pass on the generator
        copy. Each runs once per world, and ``settled`` keeps its witness
        (``_witness``). The copy itself certifies nothing, so there every law
        runs its loop."""
        if self.on_bases:
            return False
        generators = copy(self)
        generators.on_bases = True
        for law in (_cyclic_hom_sets, *laws):
            if law not in self.settled:
                self.settled[law] = _witness(law, generators)
            if self.settled[law] is not None:
                return False
        return True

    def chains(self, length: int, few: bool = False, additive: bool = False):
        """Every composable chain (f1, ..., fk), f(i+1) after f(i); on bases,
        a law additive in each map gets one base chain per tuple of objects."""
        if self.on_bases and additive:
            return (tuple(self.base[key] for key in zip(objs, objs[1:]))
                    for objs in product(self.objects, repeat=length + 1))
        chains = ((f,) for f in self.morphisms)
        for _ in range(length - 1):
            chains = (c + (g,) for c in chains
                      for C in self.objects for g in self.hom[(c[-1].cod, C)])
        return chains

    def partners(self, f: Morphism):
        """Every morphism parallel to f; on bases, the base of its hom-set."""
        key = (f.dom, f.cod)
        return (self.base[key],) if self.on_bases else self.hom[key]

    def idempotents(self):
        return (e for A in self.objects for e in self.hom[(A, A)]
                if _residue(e, e) == e.multiplier.num)

    def ideal_triples(self, few: bool = False):
        """Every triple of objects."""
        return product(self.objects, repeat=3)

    def points(self, A: Ideal):
        """Every element of A; on bases, its generator."""
        return (A.generator,) if self.on_bases else self.elements[A]

    def member(self, f: Morphism) -> bool:
        """Whether f is in its enumerated hom-set."""
        return f in self.members[(f.dom, f.cod)]

    def expected_kernel(self, f: Morphism):
        """The ideal the zero set of f generates, and (x, f(x) = 0) for each x."""
        zeros = [(x, self.ring.is_zero(apply(f, x))) for x in self.elements[f.dom]]
        return ideal_new(self.ring, [x for x, zero in zeros if zero]), zeros

    def cancellable(self, f: Morphism, left: bool) -> bool:
        """Literal cancellation: g -> f g (left) or g -> g f (right) is
        injective on every hom-set it applies to."""
        k = f.multiplier.num
        for X, rs, _ in self.into[f.dom] if left else self.out_of[f.cod]:
            m = X._modulus if left else f.dom._modulus
            if len({r * k % m for r in rs}) != len(rs):
                return False
        return True

    def right_divisors(self, j: Morphism, target: Morphism) -> list[Morphism]:
        """Every h with j after h equal to target."""
        k = target.multiplier.num
        return [h for h in self.hom[(target.dom, j.dom)]
                if _residue(j, h) == k] if j.cod == target.cod else []

    @cached_property
    def cokernel_sweep(self) -> tuple[dict | None, list[Morphism]]:
        """(witness, refused): the witness of the first map whose pair from
        the cokernel rule fails ``_is_cokernel`` or raises (``_witness``), or
        None, and every map the rule refuses. The rule runs once on every
        map, whatever it meets, so ``refused`` is complete."""
        refused = []

        def verdict(f: Morphism) -> dict | None:
            try:
                E, p = cokernel(f)
            except CokernelDoesNotExist:
                refused.append(f)
                return None
            return None if _is_cokernel(self, f, E, p) else {
                "f": f.literal, "cokernel": E.literal, "law": "universal property"}

        return next(filter(None, [_witness(verdict, f) for f in self.morphisms]), None), refused


class _SampledWorld:
    """Seeded draws over an infinite backend: each case source yields
    ``samples`` draws, or ``samples // 5`` (at least one) with ``few`` or
    where it says so. A drawn morphism is a multiple of the ``enumerate_hom``
    base of its hom-set, asked afresh on every draw: drawn ideals seldom
    repeat, and the call draws no random numbers."""

    triples_are_chains = True

    def __init__(self, ring: Ring, bounds: Bounds, mode: str, laws: LawTable):
        self.ring = ring
        self.bounds = bounds
        self.mode = mode
        self.laws = laws
        self.rng = random.Random(f"{bounds.seed}:{ring.literal}:{mode}")

    def random_element(self, nonzero: bool = False):
        while True:
            x = self.ring.random_element(self.rng, self.bounds.max_abs, self.bounds.max_degree)
            if not (nonzero and self.ring.is_zero(x)):
                return x

    def random_ideal(self, nonzero: bool = False) -> Ideal:
        if not nonzero and self.rng.random() < 0.1:
            return ideal_new(self.ring)
        return ideal_new(self.ring, [self.random_element(nonzero=True)])

    def hom_element(self, A: Ideal, B: Ideal, factor=None) -> Morphism:
        base = enumerate_hom(A, B, self.mode).base
        if factor is None:
            factor = self.random_element()
        scaled = base * Fraction.from_element(self.ring, self.ring.coerce(factor))
        return _raw_morphism(A, B, scaled)

    def draws(self, few: bool) -> range:
        return range(max(1, self.bounds.samples // 5) if few else self.bounds.samples)

    def certifies(self, *laws) -> bool:
        return False  # draws are not whole hom-sets: every law runs its full loop

    def chains(self, length: int, few: bool = False, additive: bool = False):
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
        """One drawn multiple of the generator, drawn when read."""
        yield self.ring.mul(self.ring.coerce(self.random_element()), A.generator)

    def member(self, f: Morphism) -> bool:
        return True  # drawn as a multiple of its hom-set's base

    def expected_kernel(self, f: Morphism):
        """Over a domain a nonzero multiplication map is injective; f(x) = 0
        is tested at a point drawn when the test is read."""
        zeros = ((x, self.ring.is_zero(apply(f, x))) for x in self.points(f.dom))
        return (f.dom if f.multiplier.is_zero else zero_object(self.ring)), zeros

    def cancellable(self, f: Morphism, left: bool) -> bool:
        return True  # needs whole hom-sets; mono-/epi-criterion sample it instead

    def right_divisors(self, j: Morphism, target: Morphism) -> list[Morphism]:
        """j is injective, so only the multiplier 1 can solve j h = target."""
        h = morphism_new(target.dom, j.dom, Fraction.one(self.ring))
        return [h] if compose(j, h) == target else []


def _residue(g: Morphism, f: Morphism) -> int:
    """The residue of g after f over Z_n, as ``compose(g, f).multiplier.num``
    reads it and with its NotComposable, but with no Fraction or Morphism:
    k l mod n/a for multipliers k of f: <a> -> B and l of g (the Fraction
    product is k l mod n, and n/a divides n)."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise NotComposable(f"cod {f.cod} of f differs from dom {g.dom} of g")
    return f.multiplier.num * g.multiplier.num % f.dom._modulus


def _universal(w: _FiniteWorld, apex: Ideal, leg: Morphism, limit: bool,
               f: Morphism) -> tuple | None:
    """(C, c) for the first killer c of f, at an object C, that the leg does
    not factor exactly once, or None: the cone test of a kernel (limit) or
    a cokernel of f.

    Universality (Mac Lane, CWM III.1): at every object C, a kernel's
    h -> leg h maps hom(C, apex) one to one onto the killers of f in
    hom(C, cod leg), the maps c with f c = 0, and a cokernel's h -> h leg
    maps hom(apex, C) onto those c in hom(dom leg, C) with c f = 0.

    The maps of one hom-set are told apart by their residues, which lie
    below the modulus of their domain. So a killer is keyed by its residue,
    read from the world's columns, and a hit by the residue of its composite
    with the leg (``_residue``). The leg is checked once, before any object:
    it must meet the apex and compose with f, or the test raises the
    NotComposable ``_residue`` raises on that composite. At each C the keys
    hit exactly once form a set (a Counter is built only when some key is
    hit twice), and the answer is the first killer, in hom-set order, not
    in that set, where c kills f when c k_f is 0 modulo the modulus of C
    (limit) or of dom f, as ``_residue`` reads it.
    """
    if limit and leg.dom != apex:  # the text _residue raises on the first composite
        raise NotComposable(f"cod {apex} of f differs from dom {leg.dom} of g")
    if not limit and leg.cod != apex:
        raise NotComposable(f"cod {leg.cod} of f differs from dom {apex} of g")
    _residue(f, leg) if limit else _residue(leg, f)  # raises when the leg misses f
    columns = w.into if limit else w.out_of
    k, kf = leg.multiplier.num, f.multiplier.num
    # h leg has residue r k modulo the modulus of dom leg, and leg h modulo that of C
    m, mf = leg.dom._modulus, f.dom._modulus
    for (C, rs, _), (_, ss, cones) in zip(columns[apex],
                                          columns[leg.cod if limit else leg.dom]):
        if limit:
            m = mf = C._modulus
        keys = [r * k % m for r in rs]
        once = set(keys)
        if len(once) != len(keys):  # some key is hit twice
            once = {key for key, hits in Counter(keys).items() if hits == 1}
        for s, c in zip(ss, cones):
            if s not in once and not s * kf % mf:
                return C, c
    return None


# ---------------------------------------------------------------------------
# the premises of the generator cases: certifies runs P1, then the oracle where asked


def _cyclic_hom_sets(w: _FiniteWorld):
    """P1: each hom-set is Z_k under laws.add, with zero_morphism as its zero
    and hom_neg as its negation, and laws.compose multiplies. With x_1 = b its
    base and x_(i+1) = x_i + b, the orbit x_1, ..., x_k lists exactly the k
    enumerated maps, x_i + x_j = x_(i+j mod k) for every pair, zero_morphism
    is x_k and hom_neg(x_i) is x_(k-i). With x, y and z the orbits of Hom(A,
    B), Hom(B, C) and Hom(A, C), of sizes k, l and m, the composite y_1 x_1 of
    the bases is an enumerated z_c with k c = l c = 0 mod m, and y_j x_i =
    z_(ijc mod m) for every i and j. So composition is (i, j) -> ijc mod m,
    well defined on Z_k x Z_l (k and l kill c mod m) and additive in i and
    in j: with the addition tables, both distributive laws hold.

    Last, the cocycle test: c_ABC c_ACD = c_BCD c_ABD mod |Hom(A, D)| for
    every quadruple of objects. With w and u the orbits of Hom(C, D) and
    Hom(A, D), the tables give h (g f) = u_(ijp c_ABC c_ACD) and (h g) f =
    u_(ijp c_BCD c_ABD) for f = x_i, g = y_j and h = w_p. Reducing the
    inner composite mod |Hom(A, C)| or |Hom(B, D)| first changes neither
    side, as those orders kill c_ACD and c_ABD mod |Hom(A, D)|; so the test
    is associativity, and its witness the three bases."""
    add = w.laws.add
    orbits = {}
    for key, homset in w.hom.items():
        b, k = w.base[key], len(homset)
        orbit = orbits[key] = [b]
        while len(orbit) < k:
            orbit.append(add(orbit[-1], b))
        if set(orbit) != w.members[key]:
            return {"f": b.literal, "law": "orbit of the base"}
        if zero_morphism(*key) != orbit[-1]:
            return {"f": b.literal, "law": "zero"}
        for i, x in enumerate(orbit):  # orbit[i] is x_(i+1)
            if hom_neg(x) != orbit[(k - i - 2) % k]:
                return {"f": x.literal, "law": "negation"}
            for j, y in enumerate(orbit):
                if add(x, y) != orbit[(i + j + 1) % k]:
                    return {"f": x.literal, "g": y.literal, "law": "cyclic table"}
    composites = {}  # c_ABC is composites[(A, B)][i] for C = w.objects[i]
    for A, B, C in product(w.objects, repeat=3):
        fs, gs, hs = orbits[(A, B)], orbits[(B, C)], orbits[(A, C)]
        k, l, m = len(fs), len(gs), len(hs)
        h = w.laws.compose(gs[0], fs[0])
        c = hs.index(h) + 1 if h in hs else 0
        if not c or k * c % m or l * c % m:
            return {"f": fs[0].literal, "g": gs[0].literal, "law": "composite of the bases"}
        for i, x in enumerate(fs, 1):
            for j, y in enumerate(gs, 1):
                if w.laws.compose(y, x) != hs[(i * j * c - 1) % m]:
                    return {"f": x.literal, "g": y.literal, "law": "composition table"}
        composites.setdefault((A, B), []).append(c)
    sizes = {A: [len(w.hom[(A, D)]) for D in w.objects] for A in w.objects}
    for (A, B), ab in composites.items():
        for C, abc in zip(w.objects, ab):
            for D, acd, bcd, abd, size in zip(w.objects, composites[(A, C)],
                                              composites[(B, C)], ab, sizes[A]):
                if (abc * acd - bcd * abd) % size:
                    return {"f": w.base[(A, B)].literal, "g": w.base[(B, C)].literal,
                            "h": w.base[(C, D)].literal, "law": "associativity"}
    return None


def _fin_hom_oracle(w: _FiniteWorld):
    """The maps of each hom-set A -> B have exactly the tables of
    ``brute_force_hom_set``, each k a -> k y for its own y in B and linear:
    so every enumerated f sends a into B, f(k a) = k f(a), and no two share
    a table. It reads no case source, so its witness as a premise is the
    check's too: the check reads it from ``settled`` when the premise ran."""
    if _fin_hom_oracle in w.settled:
        return w.settled[_fin_hom_oracle]
    for (A, B), homset in w.hom.items():
        ours = sorted(morphism_table(f) for f in homset)
        brute = sorted(brute_force_hom_set(A, B))
        if ours != brute:
            return {"hom": f"{A.literal}->{B.literal}", "enumerated": len(ours),
                    "brute_force": len(brute)}
    return None


# ---------------------------------------------------------------------------
# laws shared by both worlds


def _compose_associative(w):
    """h (g f) = (h g) f over every composable triple.

    On generators: P1 alone settles it. Its composition tables give
    h (g f) = u_(ijp c_ABC c_ACD) and (h g) f = u_(ijp c_BCD c_ABD) for
    f = x_i, g = y_j and h = w_p, and its cocycle test compares the two
    exponents at i = j = p = 1 for every quadruple of objects.
    """
    if w.certifies():
        return None
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
    """Each hom-set is an abelian group under laws.add, with zero_morphism
    as zero and hom_neg as negation.

    On generators: P1 alone settles it. Addition on each hom-set is the table
    of Z_k, which is closed, associative and commutative, zero_morphism is
    its zero x_k, and hom_neg sends x_i to its inverse x_(k-i).
    """
    if w.certifies():
        return None
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
    to (g + g')(f + f') = g f + g f' + g' f + g' f'. Given P1 both hold,
    by its composition and addition tables, and the loop is skipped.
    """
    if w.certifies():
        return None
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
    """(g f)(x) = g(f(x)) for every composable pair and every x in dom f.

    On generators: given P1, the oracle and add-pointwise, both sides are
    additive in x: g f is enumerated (P1), so the oracle covers it, and f(x)
    lies in dom g, on which g is additive. At x = a, the generator, both are
    additive in f, by bilinearity (P1) and add-pointwise on the left and
    add-pointwise and the oracle for g on the right, and in g, by
    bilinearity and add-pointwise on both sides. So, as for associativity,
    one base pair per triple of objects, at the generator, settles the law.
    """
    if w.certifies(_fin_hom_oracle, _add_pointwise, _compose_pointwise):
        return None
    for f, g in w.chains(2, additive=True):
        gf = w.laws.compose(g, f)
        for x in w.points(f.dom):
            if apply(gf, x) != apply(g, apply(f, x)):
                return {"f": f.literal, "g": g.literal, "x": w.ring.format_element(x)}
    return None


def _add_pointwise(w):
    """(f + g)(x) = f(x) + g(x) for every parallel pair and every x.

    On generators: P1 puts f + g in its enumerated hom-set, so by the oracle
    both sides are additive in x, and x = a, the generator, settles each pair.
    The partner g = b, the base, gives every g = x_j by induction on j, as
    (f + x_(j+1))(a) = ((f + x_j) + b)(a) = (f + x_j)(a) + b(a)
    = f(a) + x_j(a) + b(a) = f(a) + x_(j+1)(a), the last step the case
    f = x_j.
    """
    if w.certifies(_fin_hom_oracle, _add_pointwise):
        return None
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
        expected, zeros = w.expected_kernel(f)
        if K != expected:
            return {"f": f.literal, "kernel": K.literal, "expected": expected.literal}
        if j.dom != K or j.cod != f.dom or not is_inclusion(j):
            return {"f": f.literal, "law": "kernel inclusion shape"}
        if compose(f, j) != zero_morphism(K, f.cod):
            return {"f": f.literal, "law": "f after inclusion is zero"}
        for x, zero in zeros:
            if zero != contains_element(K, x):
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
    """The first object, <0>, is terminal and initial: in object order, each
    C has exactly one map into it, and then exactly one out of it."""
    zero = w.objects[0]
    for law, column in (("terminal", w.into[zero]), ("initial", w.out_of[zero])):
        for C, rs, _ in column:
            if len(rs) != 1:
                return {"object": C.literal, "law": law}
    return None


def _fin_equality_pointwise(w: _FiniteWorld):
    """Distinct maps have distinct tables; given the oracle, the loop is skipped."""
    if w.certifies(_fin_hom_oracle):
        return None
    for (A, B), homset in w.hom.items():
        tables = {morphism_table(f) for f in homset}
        if len(tables) != len(homset):
            return {
                "hom": f"{A.literal}->{B.literal}",
                "law": "distinct canonical morphisms share a function table",
            }
    return None


def _fin_kernel_universal(w: _FiniteWorld):
    for f in w.morphisms:
        K, j = w.laws.kernel(f)
        miss = _universal(w, K, j, True, f)
        if miss is not None:
            return {"f": f.literal, "j'": miss[1].literal, "law": "unique factorization"}
    return None


def _fin_cokernel_universal(w: _FiniteWorld):
    """Every pair the cokernel rule returns passes ``_is_cokernel``: the
    witness of the world's ``cokernel_sweep``."""
    return w.cokernel_sweep[0]


def _fin_cancellation(w: _FiniteWorld, left: bool):
    """is_mono (left) or is_epi agrees with literal cancellation."""
    name, criterion = ("is_mono", is_mono) if left else ("is_epi", is_epi)
    for f in w.morphisms:
        if criterion(f) != w.cancellable(f, left):
            return {"f": f.literal, name: criterion(f)}
    return None


def _fin_biproduct(w: _FiniteWorld):
    """The rule refuses A ∩ B != 0, each biproduct it builds passes
    ``_is_biproduct``, and each pairing and copairing has, as residues, the
    legs it was given."""
    for i, A in enumerate(w.objects):
        for B in w.objects[i:]:
            if math.gcd(A._modulus, B._modulus) != 1:  # A ∩ B != 0
                try:
                    biproduct(A, B)
                except NontrivialIntersection:
                    continue
                return {"A": A.literal, "B": B.literal,
                        "law": "nontrivial intersection must be refused"}
            bp = biproduct(A, B)
            if not _is_biproduct(w, A, B, bp):
                return {"A": A.literal, "B": B.literal, "law": "universal property"}
            for C in w.objects:
                for f1, f2 in product(w.hom[(C, A)], w.hom[(C, B)]):
                    h = pair_into_product(bp, f1, f2)
                    if (_residue(bp.p1, h) != f1.multiplier.num
                            or _residue(bp.p2, h) != f2.multiplier.num or h.dom != C):
                        return {"f1": f1.literal, "f2": f2.literal, "law": "pairing"}
                for g1, g2 in product(w.hom[(A, C)], w.hom[(B, C)]):
                    h = copair_from_coproduct(bp, g1, g2)
                    if (_residue(h, bp.i1) != g1.multiplier.num
                            or _residue(h, bp.i2) != g2.multiplier.num or h.cod != C):
                        return {"g1": g1.literal, "g2": g2.literal, "law": "copairing"}
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
        h = morphism_new(K2, K, j2.multiplier)
        if compose(j, h) != j2:
            return {"f": f.literal, "j'": j2.literal, "law": "existence"}
        base = enumerate_hom(K2, K, w.mode).base
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


def _smp_criterion(w: _SampledWorld, left: bool):
    """is_mono (left) or is_epi holds exactly for a nonzero map or one out of
    (into) <0>; then two distinct drawn maps into dom f (out of cod f) stay
    distinct after f. A zero map out of a nonzero ideal must not cancel."""
    name, criterion = ("is_mono", is_mono) if left else ("is_epi", is_epi)
    for (f,) in w.chains(1):
        expected = (f.dom if left else f.cod).is_zero or not f.multiplier.is_zero
        if criterion(f) != expected:
            return {"f": f.literal, name: criterion(f), "expected": expected}
        X = w.random_ideal(nonzero=True)
        ends = (X, f.dom) if left else (f.cod, X)
        g1, g2 = w.hom_element(*ends), w.hom_element(*ends)
        if expected:
            if g1 != g2 and (compose(f, g1) == compose(f, g2) if left
                             else compose(g1, f) == compose(g2, f)):
                return {"f": f.literal, "g1": g1.literal, "g2": g2.literal,
                        "law": "left cancellation" if left else "right cancellation"}
        elif left and not f.dom.is_zero:
            a, b = identity(f.dom), hom_add(identity(f.dom), identity(f.dom))
            if compose(f, a) != compose(f, b):
                return {"f": f.literal, "law": "zero map should not cancel"}
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
    ("mono-left-cancellation", partial(_fin_cancellation, left=True), None),
    ("epi-right-cancellation", partial(_fin_cancellation, left=False), None),
    ("mono-criterion", None, partial(_smp_criterion, left=True)),
    ("epi-criterion", None, partial(_smp_criterion, left=False)),
    ("subobject-strict-preorder", _subobject_preorder, _subobject_preorder),
    ("inclusion-axioms", _inclusion_axioms, _inclusion_axioms),
    ("idempotent-splitting", _idempotent_splitting, _idempotent_splitting),
    ("idempotent-kernel", _idempotent_kernel, _idempotent_kernel),
    ("biproduct-laws", _fin_biproduct, None),
]


def _require_world_of(world: _FiniteWorld, ring: Ring) -> _FiniteWorld:
    if world.ring != ring:
        raise RingMismatch(f"a world of {world.ring} cannot verify {ring}")
    return world


def check_axioms(
    ring: Ring,
    bounds: Bounds | None = None,
    mode: str = FULL,
    laws: LawTable | None = None,
    *,
    world: _FiniteWorld | None = None,
) -> Report:
    """Run every axiom check for one ring; failures become report entries.
    An unknown mode is a usage error: ValueError, before any check runs.
    Over Z_n the checks run on ``world`` when given, a ``_FiniteWorld`` of
    this ring built with these laws, so verify_ring can share it; otherwise
    on a new one, refused above the case limit before it lists any hom-set.
    A world of another ring raises RingMismatch, one of other laws
    ValueError."""
    _check_mode(mode)
    bounds = bounds or Bounds()
    laws = laws or STANDARD_LAWS
    exhaustive = ring.characteristic > 0
    if world is None:
        world = _FiniteWorld(ring, laws) if exhaustive else _SampledWorld(ring, bounds, mode, laws)
    else:
        _require_world_of(world, ring)
        if world.laws != laws:
            raise ValueError("the world was built with other laws than the checks are given")
    report = Report(ring)
    for name, finite_law, sampled_law in _CHECKS:
        fn = finite_law if exhaustive else sampled_law
        if fn is not None:
            report.checks.append(_verdict(name, _witness(fn, world)))
    return report


# ---------------------------------------------------------------------------
# existence audits: exhaustive searches vs the construction rules


def _is_cokernel(w: _FiniteWorld, f: Morphism, E: Ideal, p: Morphism) -> bool:
    """Whether p: cod f -> E is enumerated, kills f, and factors every map
    that kills f exactly once: whether _search_cokernel lists (E, p)."""
    return (p in w.members[(f.cod, E)] and not _residue(p, f)
            and _universal(w, E, p, False, f) is None)


def _search_cokernel(w: _FiniteWorld, f: Morphism) -> list[CokernelPair]:
    """Every (E, p) that ``_is_cokernel`` accepts, all at one apex in closed form.

    With b the generator of cod f, the apex is E = <b |im f|>, the one ideal
    of order e = |cod f| / |im f|. Proof: cod f / im f is a cyclic Z_n-module
    of order e, and e divides n; Z_n has exactly one ideal of that order,
    <n/e> = <b |im f|>, and it is isomorphic to Z_e. L_R is a full
    subcategory of R-Mod, so (E, p) is a cokernel in L_R for every
    surjection p: cod f -> E with kernel im f. Cokernels are unique up to
    isomorphism and |E| fixes E, so no other apex has one (Mac Lane, CWM
    VIII; Lam, Lectures on Modules and Rings, §15). Every p into E still
    goes through ``_is_cokernel``, which finds the phi(e) of them.
    """
    apex = f.cod.generator * image(f)._modulus % w.ring.characteristic
    E = next(E for E in w.objects if E.generator == apex)
    return [CokernelPair(E, p) for p in w.hom[(f.cod, E)] if _is_cokernel(w, f, E, p)]


def search_cokernel(f: Morphism) -> list[CokernelPair]:
    """Every (E, p) satisfying the full cokernel universal property, over
    the Z_n category: every p into the one apex the closed form of
    ``_search_cokernel`` admits goes through the cone test. Refused, as its
    ``_FiniteWorld`` is, for a ring that is not Z_n or is above the case
    limit, before anything is searched."""
    return _search_cokernel(_FiniteWorld(f.dom.ring), f)


def _is_biproduct(w: _FiniteWorld, A: Ideal, B: Ideal, bp: Biproduct) -> bool:
    """Whether bp's maps are enumerated maps P -> A, B and A, B -> P with
    p_i i_j = δ_ij and i1 p1 + i2 p2 = 1, compared as residues. In a
    preadditive category these five identities are a biproduct, and then
    both cones are universal (Mac Lane, CWM VIII.2, Thm 2). The search, the
    audit and ``biproduct-laws`` all decide by it."""
    P, p1, p2, i1, i2 = bp
    return (all(g in w.members[k] for g, k in zip(bp[1:], ((P, A), (P, B), (A, P), (B, P))))
            and _residue(p1, i1) == 1 % A._modulus and not _residue(p2, i1)
            and _residue(p2, i2) == 1 % B._modulus and not _residue(p1, i2)
            and (_residue(i1, p1) + _residue(i2, p2)) % P._modulus == 1 % P._modulus)


def _search_biproduct(w: _FiniteWorld, A: Ideal, B: Ideal) -> list[Biproduct]:
    """Every (P, p1, p2, i1, i2) that ``_is_biproduct`` accepts, all at one
    apex in closed form: P = A + B, the object of order |A| |B|, when
    A ∩ B = 0, and none otherwise.

    Proof: a biproduct is defined by its identities, and L_R is a full
    subcategory of Z_n-Mod with the same addition, so P ≅ A ⊕ B. That
    module is cyclic only when gcd(|A|, |B|) = 1, that is when A ∩ B, the
    ideal of order gcd(|A|, |B|), is 0, and then its order is |A| |B|. Z_n
    has one ideal of each order, so no other apex has a biproduct, nor,
    as L_R is preadditive, a product or a coproduct (Mac Lane, CWM VIII.2,
    Thm 2). For each pair of projections only the injections that
    p_i i_j = δ_ij admits go through ``_is_biproduct``.
    """
    if math.gcd(A._modulus, B._modulus) != 1:
        return []
    order = A._modulus * B._modulus
    P = next(P for P in w.objects if P._modulus == order)
    one_a, one_b = 1 % A._modulus, 1 % B._modulus
    found = []
    for p1, p2 in product(w.hom[(P, A)], w.hom[(P, B)]):
        i1s = [i for i in w.hom[(A, P)] if _residue(p1, i) == one_a and not _residue(p2, i)]
        i2s = [i for i in w.hom[(B, P)] if _residue(p2, i) == one_b and not _residue(p1, i)]
        found += [bp for bp in (Biproduct(P, p1, p2, i1, i2) for i1 in i1s for i2 in i2s)
                  if _is_biproduct(w, A, B, bp)]
    return found


def search_biproduct(A: Ideal, B: Ideal) -> list[Biproduct]:
    """Every biproduct (P, p1, p2, i1, i2) of A and B in the Z_n category:
    every tuple whose maps satisfy the five identities, refused as
    ``search_cokernel`` is."""
    _require_same_ring(A, B)
    return _search_biproduct(_FiniteWorld(A.ring), A, B)


def audit_existence(ring: Ring, *, world: _FiniteWorld | None = None) -> list[CheckResult]:
    """Compare the cokernel and biproduct rules against the Z_n category.

    Constructions the rules return must pass the predicate the search lists
    by, which the axiom checks use too (a miss is a failure). Maps the
    cokernel rule refuses are searched, and cokernels found there are
    emitted as ``discrepancy`` entries with the witnesses. Pairs the
    biproduct rule refuses are not searched: A ∩ B != 0 there, and then no
    biproduct exists (proof at ``_search_biproduct``).

    The audits run on ``world`` when given, a ``_FiniteWorld`` of this ring
    with any laws: they read the world's cokernel sweep, which the axiom
    checks share, and never ``w.laws``; a world of another ring raises
    RingMismatch. Without one they build their own, refused as
    ``search_cokernel`` is."""
    w = _FiniteWorld(ring) if world is None else _require_world_of(world, ring)
    witness, refused = w.cokernel_sweep
    entries = [_verdict("cokernel-rule-agreement", witness)]
    for f in refused:
        found = _search_cokernel(w, f)
        if found:
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

    agreement = _witness(lambda: next((
        {"A": A.literal, "B": B.literal, "law": "constructed biproduct fails the search"}
        for i, A in enumerate(w.objects) for B in w.objects[i:]
        if math.gcd(A._modulus, B._modulus) == 1 and not _is_biproduct(w, A, B, biproduct(A, B))
    ), None))
    return [*entries, _verdict("biproduct-rule-agreement", agreement)]


def verify_ring(
    ring: Ring,
    bounds: Bounds | None = None,
    mode: str = FULL,
    laws: LawTable | None = None,
) -> Report:
    """check_axioms plus, for Z_n within the search ceiling, the audits, all
    on one world, refused above the case limit before it lists any hom-set."""
    _check_mode(mode)  # a usage error before the world is built
    bounds = bounds or Bounds()
    world = _FiniteWorld(ring, laws or STANDARD_LAWS) if ring.characteristic else None
    report = check_axioms(ring, bounds, mode, laws, world=world)
    if 0 < ring.characteristic <= bounds.search_ceiling:
        report.checks.extend(audit_existence(ring, world=world))
    return report
