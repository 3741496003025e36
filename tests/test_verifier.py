import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from idealcat import constructions, ideals, verifier
from idealcat.constructions import (
    Biproduct,
    CokernelPair,
    KernelPair,
    Splitting,
    biproduct,
    cokernel,
    copair_from_coproduct,
    kernel,
    pair_into_product,
    split_idempotent,
)
from idealcat.errors import (
    CokernelDoesNotExist,
    ListingTooLarge,
    NontrivialIntersection,
    NotComposable,
    NotIdempotent,
    RingMismatch,
)
from idealcat.formats import parse_ideal, parse_morphism
from idealcat.fracfield import Fraction
from idealcat.ideals import (
    FULL,
    MAX_HOM_LISTING,
    MAX_VERIFY_CASES,
    PAPER,
    HomSet,
    Morphism,
    _raw_morphism,
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
    intersect,
    morphism_new,
    zero_morphism,
)
from idealcat.rings import INTEGERS, RATIONAL_POLYNOMIALS, ModularRing
from idealcat.verifier import (
    STANDARD_LAWS,
    Bounds,
    LawTable,
    brute_force_hom_set,
    check_axioms,
    law_mutations,
    morphism_table,
    search_biproduct,
    search_cokernel,
    verify_ring,
)

Z6 = ModularRing(6)


def exhaustive_linear_tables(n, a, b):
    """Second, fully independent oracle: try EVERY function table A -> B and
    keep the additive homogeneous ones. Exponential, so only for tiny n."""
    ring = ModularRing(n)
    xs = ideal_elements(ideal_new(ring, [a]))
    ys = ideal_elements(ideal_new(ring, [b]))
    tables = []
    for values in product(ys, repeat=len(xs)):
        table = dict(zip(xs, values))
        additive = all(
            table[(x1 + x2) % n] == (table[x1] + table[x2]) % n
            for x1 in xs
            for x2 in xs
        )
        homogeneous = all(
            table[(r * x) % n] == (r * table[x]) % n for r in range(n) for x in xs
        )
        if additive and homogeneous:
            tables.append(tuple(sorted(table.items())))
    return sorted(tables)


def test_brute_force_counts():
    one, two, three, zero = (ideal_new(Z6, [g]) for g in (1, 2, 3, 0))
    assert len(brute_force_hom_set(two, three)) == 1
    assert len(brute_force_hom_set(one, two)) == 3
    assert len(brute_force_hom_set(zero, three)) == 1


def test_brute_force_matches_exhaustive_filter():
    for n in (2, 3, 4, 5, 6):
        ring = ModularRing(n)
        for A in enumerate_objects(ring):
            for B in enumerate_objects(ring):
                brute = sorted(brute_force_hom_set(A, B))
                assert brute == exhaustive_linear_tables(n, A.generator, B.generator)


def test_brute_force_counts_are_the_gcd_of_the_orders_through_n_120():
    # Hom(Z_k, Z_l) is Z_gcd(k, l), so the count needs no table at all.
    for n in range(2, 121):
        objects = enumerate_objects(ModularRing(n))
        for A, B in product(objects, repeat=2):
            k, l = len(ideal_elements(A)), len(ideal_elements(B))
            assert len(brute_force_hom_set(A, B)) == math.gcd(k, l), (n, A, B)


def test_the_linear_test_alone_rejects_exactly_the_ill_defined_tables():
    # Without it the oracle would keep every table k*a -> k*y; it must reject
    # exactly those y with (n/a)*y != 0, the ones that define no map.
    for n in range(2, 121):
        ring = ModularRing(n)
        for a in ring.ideal_generators():
            if a == 0:
                continue
            m = n // a
            for y in range(n):
                table = {(k * a) % n: (k * y) % n for k in range(m)}
                assert verifier._table_is_linear(table, a, n) == ((m * y) % n == 0), (n, a, y)


def test_brute_force_rejects_domains():
    with pytest.raises(RingMismatch):
        brute_force_hom_set(ideal_new(INTEGERS, [2]), ideal_new(INTEGERS, [3]))


def test_enumerate_hom_matches_brute_force_through_n_12():
    for n in range(2, 13):
        ring = ModularRing(n)
        for A in enumerate_objects(ring):
            for B in enumerate_objects(ring):
                ours = sorted(morphism_table(f) for f in enumerate_hom(A, B).elements)
                assert ours == sorted(brute_force_hom_set(A, B)), (n, A, B)


def test_check_axioms_z6_all_pass():
    report = check_axioms(Z6)
    assert not report.failed
    assert report.totals["fail"] == 0
    assert {c.name for c in report.checks} >= {
        "compose-associative",
        "hom-abelian-group",
        "compose-bilinear",
        "zero-object-initial-terminal",
        "kernel-universal",
        "hom-oracle-agreement",
        "biproduct-laws",
    }


@pytest.mark.parametrize("ring", [INTEGERS, RATIONAL_POLYNOMIALS], ids=["z", "qpoly"])
def test_check_axioms_sampled_backends(ring):
    report = check_axioms(ring, Bounds(seed=3, samples=120))
    failures = [(c.name, c.witness) for c in report.checks if c.status != "pass"]
    assert not failures, failures


def test_check_axioms_z_paper_mode():
    report = check_axioms(INTEGERS, Bounds(seed=5, samples=120), mode="paper")
    assert not report.failed


# The checks each mutant fails on Z_n; a rewrite of the verifier must keep
# every one of them.
MUTANT_CATCHES = {
    "compose-adds-multipliers": {
        "compose-associative", "identity-neutral", "compose-bilinear", "compose-pointwise"},
    "add-multiplies-multipliers": {"hom-abelian-group", "compose-bilinear", "add-pointwise"},
    "kernel-whole-domain": {"kernel-zero-set", "idempotent-kernel"},
    "factorization-skips-image": {"factorization-epi-inclusion"},
    "splitting-identity-retraction": {"idempotent-splitting"},
}


@pytest.mark.parametrize(
    "ring, mode",
    [(Z6, FULL), (ModularRing(12), FULL), (INTEGERS, FULL), (INTEGERS, PAPER),
     (RATIONAL_POLYNOMIALS, FULL)],
    ids=["zmod:6", "zmod:12", "z-full", "z-paper", "qpoly-full"],
)
def test_every_fail_carries_witness_and_mutations_are_caught(ring, mode):
    for name, laws in law_mutations().items():
        report = check_axioms(ring, Bounds(seed=3, samples=20), mode, laws)
        failing = {c.name for c in report.checks if c.status == "fail"}
        assert all(c.witness is not None for c in report.checks if c.status == "fail")
        if isinstance(ring, ModularRing):
            assert failing == MUTANT_CATCHES[name], name
        elif name != "splitting-identity-retraction":
            # Over a domain the only idempotents are 0 and 1, and on those the
            # splitting mutant agrees with the rule, so only Z_n can catch it.
            assert failing, f"mutation {name} was not caught"


# sha256 of each mutant's check_axioms(zmod:n, Bounds(seed=3, samples=20)) report,
# witnesses included, recorded before universality became one cone test.
MUTANT_REPORT_SHA256 = {
    (6, "compose-adds-multipliers"):
        "85227db34c8eb3a9adb8019a650426bb5ab5a1d404832b8c76f722fd51235c5f",
    (6, "add-multiplies-multipliers"):
        "4b88e79fb7b39258f7fe7b9f0ed21e5ff1cebb68c425e38fa895b7ab4ec35e08",
    (6, "kernel-whole-domain"):
        "79522bf6ce833cb2ba53df8f9516fce0f3b2c677c561d1eecd6937f621cd5996",
    (6, "factorization-skips-image"):
        "cb8723bf79a5c20e629abe85da47d6313b637aeeb5066edbc0ab3e6635423531",
    (6, "splitting-identity-retraction"):
        "b040540d00384b31178100773a86f6a570133b20da62c58df41aeb358460ffc4",
    (12, "compose-adds-multipliers"):
        "e8241de06158a5439cdb9a81c0e101f80b981eef60f7c528c3e6c9632ce0d728",
    (12, "add-multiplies-multipliers"):
        "1e680ec50378eb635e5e8814c7f90ad126609b2ab85f2e398c7eaed15da0fe26",
    (12, "kernel-whole-domain"):
        "c98b7db2d956b63a0d7c2a45538884fc0966898cf79c8079c6818563c668de6a",
    (12, "factorization-skips-image"):
        "1c89a47765415c146ce86ea418ee504d1e445a10704a1e252baba3ec7b36cc70",
    (12, "splitting-identity-retraction"):
        "abd62538313a4c2f47a359095f597a3e55b400973d6dfdfd2293b39c305c3c0d",
}


def _sha256(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n,name", sorted(MUTANT_REPORT_SHA256))
def test_mutant_reports_match_the_recorded_digests(n, name):
    report = check_axioms(ModularRing(n), Bounds(seed=3, samples=20), FULL, law_mutations()[name])
    assert _sha256(report) == MUTANT_REPORT_SHA256[(n, name)]


# sha256 of json.dumps(verify_ring(zmod:n).to_json(), sort_keys=True), recorded
# before universality became one cone test; n <= 12 includes the audits.
ZMOD_REPORT_SHA256 = {
    2: "c168a7d4d48ed5e591675d721480bc12804e79d97d6c9c32052a410342d21187",
    3: "398eb5c267ae5f339e525554d99614777158b628f8b680c751c5a98cf6670298",
    4: "ecbc8b05b638988c28a215c9c24d47a28691d8c912a595a4432ab4cf912bd192",
    5: "5842903cfff65b9417bb5b4a64d4aca0d576d4072efee0f0ffbfc0f2b775a18f",
    6: "eaafed5f32b0da3697d2ab26745e7831fbb3cfac33da842977a96a61240db02e",
    7: "64e62f357fda05e2786044beec202612d9a2405a5775c2e1d3fe1c28965a049c",
    8: "3c7480b5b02160e448acdc23b3aba1e76b6e53f49b89010b5376bbaf97c448c7",
    9: "f20465d8cda1fa2352869935bf0b2aa3efdf2c510d73b2ba4b04adfe50791b6b",
    10: "e88d01097a8443cdf27ccbdfb97737335ee27fdf4aa1b219ed5ef47ec136a7d6",
    11: "320ffc45b1084bd84aa3bb688c175b221eb0062e00f8a552bd647d11a1030b4e",
    12: "e86d9ba0d78c17f60786f9bbbd60d862cb574f06a223bc43ebb89bf7bfe99c84",
    13: "9a3540a94a09347fd7c4f61a566a4f5b0a7ef3a332c844ed9162600c93e6ad0a",
    14: "5f6d58d529dd12725b2c737b3767bc61287dfce15eb541a8b4757617ed4070d3",
    15: "249952f5369e18ef3daf434163c2f474e61fb8d19a490f09c25ed44d72f6de8d",
    16: "72f0d55a4887be7b09ae0c7d3e051653a4b0356c373faa8d9b07c08d4379b217",
    # recorded before the cubic laws were settled on hom-set bases
    17: "8dca025654a7f4399c66d56ae69ead917f83e96c55d6ae5da31494e651c0909c",
    18: "f825e35b74054f51493c805d5a42aaa3adb838253ae179ea57b26248d0c902ba",
    19: "d1dd48efbfd2c4e9e5fac70db78f40d62ea8b2d1312800a96ab8d3cbecdabda5",
    20: "ad8fe5687d936c2d4f26b9188bad75652712e902be305d4408ac7782ceda1129",
    21: "d64cf74d94dddfe595fa033881a47856e5e72220938dae92aca7d213d5766a1b",
    22: "851f6581a03e8b0f091dae701c63c7e85348abdee957b08b350bfa216748bd27",
    23: "28d542321517218b44f2e2c772e77ef5350a2f14e1fb8aa3a233995b91e9d9c9",
    24: "e18deffdc02e36eec0a002377b7964eb2a0eee4433b8d89f996528dbfa234f99",
}


@pytest.mark.parametrize("n", sorted(ZMOD_REPORT_SHA256))
def test_zmod_reports_match_the_recorded_digests(n):
    assert _sha256(verify_ring(ModularRing(n))) == ZMOD_REPORT_SHA256[n]


def _on_one(f):
    return f.dom.generator == 1 and f.cod.generator == 1


def _add_wrong_on_the_orbit(f, g):
    # 1 + 1 on <1> -> <1> comes out as 1, so the orbit of the base 1 is not the hom-set
    if _on_one(f) and _on_one(g) and f.multiplier.num == 1 and g.multiplier.num == 1:
        return f
    return hom_add(f, g)


def _add_wrong_off_the_orbit(f, g):
    # 2 + 3 on <1> -> <1> comes out as 0; the orbit 1, 1+1, ... is right, the table is not
    if _on_one(f) and _on_one(g) and f.multiplier.num == 2 and g.multiplier.num == 3:
        return zero_morphism(f.dom, f.cod)
    return hom_add(f, g)


def _add_with_another_zero(f, g):
    # f + g - 2b, b the hom-set's base: still a cyclic group, but its zero is 2b
    b = enumerate_hom(f.dom, f.cod).base
    return _raw_morphism(f.dom, f.cod, hom_add(f, g).multiplier - b - b)


def _compose_wrong_off_generators(g, f):
    # 2 after 2 on <1> -> <1> -> <1> comes out one too large; bases compose right
    h = compose(g, f)
    if _on_one(f) and _on_one(g) and f.multiplier.num == 2 and g.multiplier.num == 2:
        return _raw_morphism(h.dom, h.cod, h.multiplier + Fraction.one(h.dom.ring))
    return h


def _compose_wrong_after_two(g, f):
    # 2 on <1> after any f comes out as 3 f: additive in f, not in g
    h = compose(g, f)
    if _on_one(g) and g.multiplier.num == 2:
        return _raw_morphism(h.dom, h.cod, h.multiplier + f.multiplier)
    return h


def _compose_wrong_before_two(g, f):
    # any g after 2 on <1> comes out as 3 g: additive in g, not in f
    h = compose(g, f)
    if _on_one(f) and f.multiplier.num == 2:
        return _raw_morphism(h.dom, h.cod, h.multiplier + g.multiplier)
    return h


# Defects outside the documented catalogue that the reduced checks on hom-set
# bases must hand to the full loops; each breaks one premise or one reduced law.
# sha256 of check_axioms(zmod:n, Bounds(seed=3, samples=20)) with each, recorded
# while every law still ran its full loop.
LOCAL_MUTANTS = {
    "add-wrong-on-the-orbit": replace(STANDARD_LAWS, add=_add_wrong_on_the_orbit),
    "add-wrong-off-the-orbit": replace(STANDARD_LAWS, add=_add_wrong_off_the_orbit),
    "add-with-another-zero": replace(STANDARD_LAWS, add=_add_with_another_zero),
    "compose-wrong-off-generators": replace(STANDARD_LAWS, compose=_compose_wrong_off_generators),
    "compose-wrong-after-two": replace(STANDARD_LAWS, compose=_compose_wrong_after_two),
    "compose-wrong-before-two": replace(STANDARD_LAWS, compose=_compose_wrong_before_two),
}
LOCAL_MUTANT_REPORT_SHA256 = {
    (6, "add-wrong-on-the-orbit"):
        "e43d525b1ff42b9465fb161c58da42937d630a137d5c0f60269a20574bc6a720",
    (6, "add-wrong-off-the-orbit"):
        "61e9502d6ea17752a0807fccff16c9cf5d93a3f5a5aebe9bf2089781a1e76bee",
    (6, "add-with-another-zero"):
        "54a25393419b2f22d5f5c00c1de4eb9ea033d83967b8357361619cbc8dc0b1c9",
    (6, "compose-wrong-off-generators"):
        "4fe76a55cf4262a097269f77bd0c83203db0566e3f9bd9d06979a839050cd92d",
    (6, "compose-wrong-after-two"):
        "9806ec0218a465a8671ac741ef64161b1229a6ea0c26c53d5db8bbc40cf26f18",
    (6, "compose-wrong-before-two"):
        "b6960df45b5eade3e057263fcfa4b19fcdef7ecc79011e0e1c6546af3b4d2193",
    (12, "add-wrong-on-the-orbit"):
        "91ccf4c13f2139a1c3efd1bbd4e06286b8338796dfc0c1e7f02a444344751554",
    (12, "add-wrong-off-the-orbit"):
        "f9d00171db180933f2e0113ddd87cef62f87e982279063213dcfd5f3621c84ac",
    (12, "add-with-another-zero"):
        "bb12539b620b9c892b9a41c9e6a6b657e914c365781575f704c21655cac934ee",
    (12, "compose-wrong-off-generators"):
        "ca656c2044126fab111dc91cc5222ed663d5b497ac9d60c7aa283ffc61f0f743",
    (12, "compose-wrong-after-two"):
        "b65fab63f9c03ba31ff4fb7e09c45c4b28cd18f69e6429c0776b77a212291638",
    (12, "compose-wrong-before-two"):
        "48d55a6ad66509cf980bb97bf4404a44bba55c255182ea1f926f572673d7771d",
}


@pytest.mark.parametrize("n,name", sorted(LOCAL_MUTANT_REPORT_SHA256))
def test_defects_off_the_generators_get_the_full_loop_witnesses(n, name):
    report = check_axioms(ModularRing(n), Bounds(seed=3, samples=20), FULL, LOCAL_MUTANTS[name])
    assert _sha256(report) == LOCAL_MUTANT_REPORT_SHA256[(n, name)]


def test_the_sampled_kernel_check_draws_its_point_only_where_it_compares():
    # recorded when the check drew its point in its own loop: where it stops
    # before that loop, no point is drawn, and the checks after it see the
    # draws they saw then; a draw made earlier changes kernel-universal here
    laws = replace(STANDARD_LAWS, kernel=_doubled_inclusion)
    report = verify_ring(RATIONAL_POLYNOMIALS, Bounds(seed=0, samples=25), FULL, laws)
    assert _sha256(report) == "92a25d8276c20bd381c5bbacc250f61afe3cd7bf7d629c933b9b8fbf8e219f38"


def _counting_laws(calls: Counter, *names: str):
    """STANDARD_LAWS with each named law counting its calls in ``calls``."""
    def counted(name):
        def run(*args):
            calls[name] += 1
            return getattr(STANDARD_LAWS, name)(*args)
        return run
    return replace(STANDARD_LAWS, **{name: counted(name) for name in names})


def test_cubic_laws_run_on_hom_set_bases():
    # zmod:24 has 320,280 composable triples; the full loops compose 1.6 M times
    calls = Counter()
    laws = _counting_laws(calls, "compose", "add")
    assert not check_axioms(ModularRing(24), laws=laws).failed
    assert calls["compose"] < 320_280, calls


def _doubled_projection(f):
    E, p = cokernel(f)
    return CokernelPair(E, hom_add(p, p))


def _doubled_inclusion(f):
    K, j = kernel(f)
    return KernelPair(K, hom_add(j, j))


def _zero_first_projection(A, B):
    bp = biproduct(A, B)
    return bp._replace(p1=zero_morphism(bp.object, A))


def _unchecked_morphism(dom, cod, multiplier):
    """A Morphism with its multiplier kept as given, which Morphism(...) and
    morphism_new refuse or reduce: a planted map off its canonical residue."""
    f = object.__new__(Morphism)
    for name, value in zip(Morphism._fields, (dom, cod, multiplier)):
        getattr(Morphism, name).__set__(f, value)
    return f


def _off_its_residue(f):
    # f's multiplier plus |dom f|: the same map, but not the canonical member,
    # which the checks catch through the predicates they share with the audits
    return _unchecked_morphism(
        f.dom, f.cod, f.multiplier + Fraction(f.dom.ring, f.dom._modulus, 1))


def _projection_off_its_residue(f):
    E, p = cokernel(f)
    return CokernelPair(E, _off_its_residue(p))


def _first_projection_off_its_residue(A, B):
    bp = biproduct(A, B)
    return bp._replace(p1=_off_its_residue(bp.p1))


def _biproduct_never_refused(A, B):
    try:
        return biproduct(A, B)
    except NontrivialIntersection:
        return None


def _biproduct_of_zero_ideals(A, B):
    biproduct(A, B)  # refuses what the rule refuses
    zero = ideal_new(A.ring, [0])
    return biproduct(zero, zero)


def _zero_copairing(bp, g1, g2):
    return zero_morphism(bp.object, g1.cod)


def _listing_a_nonzero_map(into_zero: bool):
    """enumerate_hom that also lists rho(0;1;b) in Hom(<0>, B), or rho(b;1;0)
    in Hom(B, <0>) with into_zero, for every nonzero B: a second map there."""
    def listing(A, B, mode=FULL):
        hs = enumerate_hom(A, B, mode)
        zero, other = (B, A) if into_zero else (A, B)
        if not zero.is_zero or other.is_zero:
            return hs
        extra = _raw_morphism(A, B, Fraction.one(A.ring))
        return HomSet(A, B, hs.base, hs.modulus, hs.elements + (extra,))
    return listing


def _add_off_its_residue(f, g):
    """hom_add whose nonzero sums of two nonzero maps are off their residue,
    so outside the hom-set where the domain is not <1>; zero stays neutral
    on both sides."""
    if f.is_zero or g.is_zero:
        return g if f.is_zero else f
    h = hom_add(f, g)
    return h if h.is_zero else _off_its_residue(h)


def _dropping_the_last_map_of_hom_1_1(A, B, mode=FULL):
    """enumerate_hom that leaves the last of the n maps out of Hom(<1>, <1>)."""
    hs = enumerate_hom(A, B, mode)
    if A.generator != 1 or B.generator != 1:
        return hs
    return HomSet(A, B, hs.base, hs.modulus, hs.elements[:-1])


# Defects planted in the verifier's namespace: (attribute, planted value, the
# checks that must fail).
PLANTED_DEFECTS = {
    "cokernel-projection-doubled": (
        "cokernel", _doubled_projection, {"cokernel-universal", "cokernel-rule-agreement"}),
    "cokernel-projection-off-its-residue": (
        "cokernel", _projection_off_its_residue,
        {"cokernel-universal", "cokernel-rule-agreement"}),
    "kernel-inclusion-doubled": (
        "STANDARD_LAWS", replace(STANDARD_LAWS, kernel=_doubled_inclusion), {"kernel-universal"}),
    "biproduct-projection-zero": (
        "biproduct", _zero_first_projection, {"biproduct-laws", "biproduct-rule-agreement"}),
    "second-map-out-of-zero": (
        "enumerate_hom", _listing_a_nonzero_map(into_zero=False),
        {"zero-object-initial-terminal"}),
    "second-map-into-zero": (
        "enumerate_hom", _listing_a_nonzero_map(into_zero=True),
        {"zero-object-initial-terminal"}),
    "biproduct-projection-off-its-residue": (
        "biproduct", _first_projection_off_its_residue,
        {"biproduct-laws", "biproduct-rule-agreement"}),
    "biproduct-of-other-objects": (
        "biproduct", _biproduct_of_zero_ideals, {"biproduct-laws", "biproduct-rule-agreement"}),
    "biproduct-never-refused": ("biproduct", _biproduct_never_refused, {"biproduct-laws"}),
    "copairing-zero": ("copair_from_coproduct", _zero_copairing, {"biproduct-laws"}),
    "every-map-mono": ("is_mono", lambda f: True, {"mono-left-cancellation"}),
    "every-map-epi": ("is_epi", lambda f: True, {"epi-right-cancellation"}),
    "no-map-epi": (
        "is_epi", lambda f: False, {"factorization-epi-inclusion", "epi-right-cancellation"}),
    "no-map-mono": (
        "is_mono", lambda f: False, {"inclusion-axioms", "mono-left-cancellation"}),
    "no-ideal-a-subideal": ("is_subideal", lambda A, B: False, {"subobject-strict-preorder"}),
    "hom-1-1-missing-a-map": (
        "enumerate_hom", _dropping_the_last_map_of_hom_1_1, {"hom-oracle-agreement"}),
    "zero-off-its-residue": (
        "zero_morphism", lambda A, B: _off_its_residue(zero_morphism(A, B)),
        {"hom-abelian-group"}),
    "sum-off-its-residue": (
        "STANDARD_LAWS", replace(STANDARD_LAWS, add=_add_off_its_residue),
        {"hom-abelian-group"}),
    "no-map-an-inclusion": (
        "is_inclusion", lambda f: False,
        {"factorization-epi-inclusion", "inclusion-axioms", "kernel-zero-set"}),
    "no-residue-matches": ("_residue", lambda g, f: -1, {"inclusion-axioms"}),
    "zero-in-no-ideal": (
        "contains_element", lambda A, x: x != 0 and contains_element(A, x), {"kernel-zero-set"}),
    "every-residue-one": ("_residue", lambda g, f: 1 % f.dom._modulus, {"inclusion-axioms"}),
}
# The witness a planted defect must leave on the check it breaks, or the
# function of n that gives it.
PLANTED_WITNESSES = {
    "cokernel-projection-off-its-residue": (
        "cokernel-universal", {"f": "rho(0;0;0)", "cokernel": "<0>", "law": "universal property"}),
    "biproduct-projection-off-its-residue": (
        "biproduct-laws", {"A": "<0>", "B": "<0>", "law": "universal property"}),
    "biproduct-of-other-objects": ("biproduct-rule-agreement", {
        "A": "<0>", "B": "<1>", "law": "constructed biproduct fails the search"}),
    "biproduct-never-refused": ("biproduct-laws", {
        "A": "<1>", "B": "<1>", "law": "nontrivial intersection must be refused"}),
    "copairing-zero": (
        "biproduct-laws", {"g1": "rho(0;0;1)", "g2": "rho(1;1;1)", "law": "copairing"}),
    "second-map-out-of-zero": (
        "zero-object-initial-terminal", {"object": "<1>", "law": "initial"}),
    "second-map-into-zero": (
        "zero-object-initial-terminal", {"object": "<1>", "law": "terminal"}),
    "no-map-epi": ("factorization-epi-inclusion",
                   {"f": "rho(0;0;0)", "q": "rho(0;0;0)", "law": "q is epi"}),
    "no-map-mono": ("inclusion-axioms", {"j": "rho(0;0;0)", "law": "inclusions are mono"}),
    "no-ideal-a-subideal": ("subobject-strict-preorder", {"A": "<0>", "law": "reflexivity"}),
    "hom-1-1-missing-a-map": ("hom-oracle-agreement", lambda n: {
        "hom": "<1>-><1>", "enumerated": n - 1, "brute_force": n}),
    "zero-off-its-residue": (
        "hom-abelian-group", {"hom": "<0>-><0>", "law": "zero missing"}),
    "sum-off-its-residue": (
        "hom-abelian-group", {"f": "rho(2;1;1)", "g": "rho(2;1;1)", "law": "closure"}),
    "no-map-an-inclusion": ("factorization-epi-inclusion",
                            {"f": "rho(0;0;0)", "j": "rho(0;0;0)", "law": "j is an inclusion"}),
    "zero-in-no-ideal": ("kernel-zero-set", {"f": "rho(0;0;0)", "x": "0"}),
    "no-residue-matches": ("inclusion-axioms",
                           {"j1": "rho(0;0;0)", "j2": "rho(0;0;0)", "law": "right division"}),
    "every-residue-one": ("inclusion-axioms", {
        "j1": "rho(1;1;1)", "j2": "rho(0;0;1)", "h": "rho(1;0;0)", "law": "right division"}),
}


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("defect", sorted(PLANTED_DEFECTS))
def test_planted_defects_fail_the_named_checks(monkeypatch, defect, n):
    attribute, planted, must_fail = PLANTED_DEFECTS[defect]
    monkeypatch.setattr(verifier, attribute, planted)
    report = verify_ring(ModularRing(n))
    failing = {c.name for c in report.checks if c.status == "fail"}
    assert must_fail <= failing, failing
    assert all(c.witness for c in report.checks if c.status == "fail")
    if defect in PLANTED_WITNESSES:
        name, witness = PLANTED_WITNESSES[defect]
        if callable(witness):
            witness = witness(n)
        assert {c.name: c.witness for c in report.checks}[name] == witness


def test_no_map_into_zero_fails_the_zero_object_check(monkeypatch):
    # an empty hom(C, <0>) is as wrong as one of two maps
    def listing(A, B, mode=FULL):
        hs = enumerate_hom(A, B, mode)
        return hs._replace(elements=()) if B.is_zero and not A.is_zero else hs

    monkeypatch.setattr(verifier, "enumerate_hom", listing)
    report = check_axioms(Z6)
    assert {c.name: c.witness for c in report.checks}["zero-object-initial-terminal"] == {
        "object": "<1>", "law": "terminal"}


def _cokernel_never_refused(f):
    try:
        return cokernel(f)
    except CokernelDoesNotExist:
        return CokernelPair(f.cod, identity(f.cod))


def _cokernel_of_zero_is_zero(f):
    """cokernel that gives the zero map on cod f to a zero map f."""
    return CokernelPair(f.cod, zero_morphism(f.cod, f.cod)) if f.is_zero else cokernel(f)


def _unit_base_at_zero(into_zero: bool):
    """enumerate_hom whose base out of <0> is 1 for every nonzero B, or, with
    into_zero, whose base from every nonzero B into <0> is."""
    def listing(A, B, mode=FULL):
        hs = enumerate_hom(A, B, mode)
        zero, other = (B, A) if into_zero else (A, B)
        if not zero.is_zero or other.is_zero:
            return hs
        return HomSet(A, B, Fraction.one(A.ring), hs.modulus, hs.elements)
    return listing


def _add_twice_the_second(f, g):
    """f + 2g, or f + g where g is zero or -f: zero and inverses hold, but
    the sum is not commutative."""
    if g.is_zero or g == hom_neg(f):
        return hom_add(f, g)
    return hom_add(f, hom_add(g, g))


def _morphism_new_unvalidated(dom, cod, multiplier, mode=FULL):
    """morphism_new that lets any multiplier through, into <0> as well."""
    return _raw_morphism(dom, cod, multiplier)


def _cokernel_of_a_surjection_is_its_codomain(f):
    if not f.is_zero and image(f) == f.cod:
        return CokernelPair(f.cod, identity(f.cod))
    return cokernel(f)


def _compose_keeping_the_first_through_zero(g, f):
    """compose that keeps f's multiplier when g is zero, so that a zero map
    after f tells f apart."""
    return _raw_morphism(f.dom, g.cod, f.multiplier) if g.is_zero else compose(g, f)


# Defects planted in the verifier's namespace for the sampled worlds over Z and
# Q[x]: (attribute, planted value, the check that must fail). Each reaches a
# fail branch of a sampled check that the standard laws never take.
SAMPLED_PLANTED_DEFECTS = {
    "cokernel-never-refused": ("cokernel", _cokernel_never_refused, "cokernel-rule"),
    "every-map-mono": ("is_mono", lambda f: True, "mono-criterion"),
    "every-map-epi": ("is_epi", lambda f: True, "epi-criterion"),
    "unit-base-out-of-zero": (
        "enumerate_hom", _unit_base_at_zero(into_zero=False), "zero-object-initial-terminal"),
    "unit-base-into-zero": (
        "enumerate_hom", _unit_base_at_zero(into_zero=True), "zero-object-initial-terminal"),
    "morphism-new-unvalidated": (
        "morphism_new", _morphism_new_unvalidated, "zero-object-initial-terminal"),
    "sum-not-commutative": (
        "STANDARD_LAWS", replace(STANDARD_LAWS, add=_add_twice_the_second), "hom-abelian-group"),
    "surjection-keeps-its-codomain": (
        "cokernel", _cokernel_of_a_surjection_is_its_codomain, "cokernel-rule"),
    "zero-map-keeps-the-first": (
        "compose", _compose_keeping_the_first_through_zero, "mono-criterion"),
    "apply-returns-its-argument": ("apply", lambda f, x: x, "morphism-equality-pointwise"),
    "every-ideal-a-subideal": ("is_subideal", lambda A, B: True, "subobject-strict-preorder"),
    "negation-returns-its-argument": ("hom_neg", lambda f: f, "hom-abelian-group"),
    "no-ideal-a-subideal": ("is_subideal", lambda A, B: False, "subobject-strict-preorder"),
    "cokernel-of-zero-is-zero": ("cokernel", _cokernel_of_zero_is_zero, "cokernel-rule"),
}
# The law a sampled planted defect must break on its check.
SAMPLED_PLANTED_LAWS = {
    "no-ideal-a-subideal": "transitivity",
    "cokernel-of-zero-is-zero": "zero map gets (cod, identity)",
    "unit-base-out-of-zero": "initial",
    "unit-base-into-zero": "terminal",
    "morphism-new-unvalidated": "only the zero map enters the zero ideal",
    "sum-not-commutative": "commutativity",
    "surjection-keeps-its-codomain": "surjection gets the zero object",
    "zero-map-keeps-the-first": "zero map should not cancel",
}


@pytest.mark.parametrize("ring, mode", [(INTEGERS, FULL), (INTEGERS, PAPER),
                                        (RATIONAL_POLYNOMIALS, FULL)],
                         ids=["z-full", "z-paper", "qpoly"])
@pytest.mark.parametrize("defect", sorted(SAMPLED_PLANTED_DEFECTS))
def test_sampled_planted_defects_fail_the_named_checks(monkeypatch, defect, ring, mode):
    attribute, planted, must_fail = SAMPLED_PLANTED_DEFECTS[defect]
    monkeypatch.setattr(verifier, attribute, planted)
    report = verify_ring(ring, Bounds(seed=0, samples=25), mode)
    witnesses = {c.name: c.witness for c in report.checks if c.status == "fail"}
    assert must_fail in witnesses, sorted(witnesses)
    assert all(witnesses.values())
    assert "error" not in witnesses[must_fail], witnesses[must_fail]  # a law, not a crash


@pytest.mark.parametrize("ring, mode", [(INTEGERS, FULL), (INTEGERS, PAPER),
                                        (RATIONAL_POLYNOMIALS, FULL)],
                         ids=["z-full", "z-paper", "qpoly"])
@pytest.mark.parametrize("defect", sorted(SAMPLED_PLANTED_LAWS))
def test_sampled_planted_defects_break_the_named_laws(monkeypatch, defect, ring, mode):
    attribute, planted, check = SAMPLED_PLANTED_DEFECTS[defect]
    monkeypatch.setattr(verifier, attribute, planted)
    report = verify_ring(ring, Bounds(seed=0, samples=25), mode)
    assert {c.name: c.witness for c in report.checks}[check]["law"] == SAMPLED_PLANTED_LAWS[defect]


def _compose_raises_on_three_after_two(g, f):
    if _on_one(f) and _on_one(g) and f.multiplier.num == 2 and g.multiplier.num == 3:
        raise ArithmeticError("3 after 2 on <1>")
    return compose(g, f)


def test_a_law_that_raises_on_generators_gets_the_full_loop_report(monkeypatch):
    # P1's composition table meets 3 after 2, so certifies settles P1 False
    # through its except branch and every law runs its full loop
    laws = replace(STANDARD_LAWS, compose=_compose_raises_on_three_after_two)
    report = check_axioms(Z6, laws=laws).to_json()
    assert {"error": "ArithmeticError: 3 after 2 on <1>"} in [
        c["witness"] for c in report["checks"]]
    monkeypatch.setattr(verifier._FiniteWorld, "certifies", lambda self, *laws: False)
    assert check_axioms(Z6, laws=laws).to_json() == report


def _cokernel_raising_on_the_identity_of_one(f):
    if f.dom.generator == f.cod.generator == f.multiplier.num == 1:
        raise ValueError("planted")
    return cokernel(f)


def _biproduct_raising_on_two_and_three(A, B):
    if (A.generator, B.generator) == (2, 3):
        raise ValueError("planted")
    return biproduct(A, B)


def _intersect_of_three_and_four_is_one(A, B):
    # <3> ∩ <4> is <0> over zmod:12; the biproduct rule then refuses the pair
    if {A.generator, B.generator} == {3, 4}:
        return ideal_new(A.ring, [1])
    return intersect(A, B)


# A rule planted in the modules that hold it, and no other defect: (modulus,
# the planted attribute and value, the entries that must fail, their witness).
RAISING_RULES = {
    "cokernel-raises-on-rho(1;1;1)": (
        6, [(verifier, "cokernel", _cokernel_raising_on_the_identity_of_one)],
        {"cokernel-universal", "cokernel-rule-agreement"}, "ValueError: planted"),
    "biproduct-raises-on-<2>-<3>": (
        6, [(verifier, "biproduct", _biproduct_raising_on_two_and_three)],
        {"biproduct-laws", "biproduct-rule-agreement"}, "ValueError: planted"),
    # planted wherever the name is bound, as a defect in the library's own
    # intersect would be: no verdict on A ∩ B = 0 may share its code
    "intersect-of-<3>-<4>-is-<1>": (
        12, [(module, "intersect", _intersect_of_three_and_four_is_one)
             for module in (ideals, constructions, verifier) if hasattr(module, "intersect")],
        {"biproduct-laws", "biproduct-rule-agreement"},
        "NontrivialIntersection: <3> and <4> intersect in <1>"),
}


@pytest.mark.parametrize("rule", sorted(RAISING_RULES))
def test_a_construction_rule_that_raises_gives_fail_entries(monkeypatch, rule):
    # verify_ring raised out of the audits for the first two, and the
    # planted intersect passed every check
    n, planted, must_fail, error = RAISING_RULES[rule]
    ring = ModularRing(n)
    clean = verify_ring(ring).checks
    for module, name, value in planted:
        monkeypatch.setattr(module, name, value)
    report = verify_ring(ring).checks
    assert [c.name for c in report] == [c.name for c in clean]
    for got, unplanted in zip(report, clean):
        if got.name in must_fail:
            assert (got.status, got.witness) == ("fail", {"error": error}), got
        else:
            assert got == unplanted
    checks = check_axioms(ring).checks  # the audit entries come after them
    assert checks == report[:len(checks)]


def _compose_out_of_memory(g, f):
    raise MemoryError


def test_running_out_of_memory_is_no_verdict():
    # a MemoryError once became the witness {"error": "MemoryError: "}, and
    # a premise that raised it sent the pointwise laws to their full loops
    laws = replace(STANDARD_LAWS, compose=_compose_out_of_memory)
    with pytest.raises(MemoryError):
        check_axioms(Z6, laws=laws)
    w = verifier._FiniteWorld(Z6, laws)
    with pytest.raises(MemoryError):
        w.certifies()
    assert verifier._cyclic_hom_sets not in w.settled


def _apply_off_at_twice_two(f, x):
    # on <2> -> B, 4 = 2 + 2 goes to f(4) + b, b the generator of B; f(2) is right
    y = apply(f, x)
    if f.dom.generator == 2 and x == 4:
        return (y + f.cod.generator) % f.dom.ring.characteristic
    return y


def _apply_off_at_four_times_two(f, x):
    # on <2> -> B, 8 goes to f(8) + b; the generator cases apply maps only at
    # a generator and at the base images f(a), and none of those is 8 in Z_12
    y = apply(f, x)
    if f.dom.generator == 2 and x == 8:
        return (y + f.cod.generator) % f.dom.ring.characteristic
    return y


# Defects that no generator case meets: (attribute and value planted in the
# verifier's namespace or None, laws, the premise that must fail, the checks
# that must fail).
GENERATOR_BLIND_DEFECTS = {
    "apply-off-at-twice-the-generator": (
        ("apply", _apply_off_at_twice_two), STANDARD_LAWS, verifier._fin_hom_oracle,
        {"add-pointwise", "compose-pointwise"}),
    "apply-off-at-four-times-two": (
        ("apply", _apply_off_at_four_times_two), STANDARD_LAWS, verifier._fin_hom_oracle,
        {"add-pointwise", "compose-pointwise"}),
    "compose-wrong-off-base-pairs": (
        None, LOCAL_MUTANTS["compose-wrong-off-generators"], verifier._cyclic_hom_sets,
        {"compose-pointwise"}),
}


@pytest.mark.parametrize("defect", sorted(GENERATOR_BLIND_DEFECTS))
def test_defects_off_the_generators_fail_the_pointwise_laws(monkeypatch, defect):
    planted, laws, premise, must_fail = GENERATOR_BLIND_DEFECTS[defect]
    if planted:
        monkeypatch.setattr(verifier, *planted)
    ring = ModularRing(12)
    w = verifier._FiniteWorld(ring, laws)
    assert verifier._add_pointwise(w) or verifier._compose_pointwise(w)
    assert w.settled[premise] is not None
    report = check_axioms(ring, laws=laws).to_json()
    witnesses = {c["name"]: c["witness"] for c in report["checks"] if c["status"] == "fail"}
    assert must_fail <= set(witnesses), sorted(witnesses)
    assert not any("error" in witnesses[name] for name in must_fail), witnesses
    monkeypatch.setattr(verifier._FiniteWorld, "certifies", lambda self, *laws: False)
    assert check_axioms(ring, laws=laws).to_json() == report


@pytest.mark.parametrize("n", [6, 12])
def test_an_apply_that_returns_its_argument_fails_the_oracle_premise(monkeypatch, n):
    # the zero map <1> -> <0> comes out as the identity table, which no y gives
    monkeypatch.setattr(verifier, "apply", lambda f, x: x)
    ring = ModularRing(n)
    w = verifier._FiniteWorld(ring, STANDARD_LAWS)
    witness = {"hom": "<1>-><0>", "enumerated": 1, "brute_force": 1}
    assert verifier._fin_hom_oracle(w) == witness
    verifier._add_pointwise(w)
    assert w.settled[verifier._fin_hom_oracle] == witness
    report = check_axioms(ring).to_json()
    monkeypatch.setattr(verifier._FiniteWorld, "certifies", lambda self, *laws: False)
    assert check_axioms(ring).to_json() == report


@pytest.mark.parametrize("n", [6, 12, 24])
def test_pointwise_laws_settle_on_generators(n):
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    assert verifier._compose_pointwise(w) is None and verifier._add_pointwise(w) is None
    for law in (verifier._fin_hom_oracle, verifier._add_pointwise,
                verifier._compose_pointwise):
        assert w.settled[law] is None, law.__name__


@pytest.mark.parametrize("n", [6, 12, 24])
def test_one_verify_runs_the_oracle_once_per_hom_set(monkeypatch, n):
    # the pointwise laws run it as their premise, and its check reuses that run
    calls = Counter()

    def counted(A, B):
        calls[(A, B)] += 1
        return brute_force_hom_set(A, B)

    monkeypatch.setattr(verifier, "brute_force_hom_set", counted)
    assert not verify_ring(ModularRing(n)).failed
    objects = enumerate_objects(ModularRing(n))
    assert calls == Counter({(A, B): 1 for A in objects for B in objects})


def test_equality_by_function_tables_builds_no_table_of_its_own(monkeypatch):
    # every table check_axioms builds is the oracle's, one per morphism
    ring = ModularRing(12)
    calls = Counter()

    def counted(f):
        calls[f] += 1
        return morphism_table(f)

    monkeypatch.setattr(verifier, "morphism_table", counted)
    assert not check_axioms(ring).failed
    assert calls == Counter(all_morphisms(ring))
    w = verifier._FiniteWorld(ring, STANDARD_LAWS)
    assert w.certifies(verifier._fin_hom_oracle)
    calls.clear()
    assert verifier._fin_equality_pointwise(w) is None
    assert not calls


def _apply_doubled_on_one(f, x):
    # on <1> -> <1> every map is applied twice over: additive, and into <1>,
    # but n/2 apart maps share a table
    y = apply(f, x)
    if f.dom.generator == 1 and f.cod.generator == 1:
        return 2 * y % f.dom.ring.characteristic
    return y


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("attribute, planted", [
    ("enumerate_hom", _dropping_the_last_map_of_hom_1_1),
    ("apply", _apply_doubled_on_one),
], ids=["hom-1-1-missing-a-map", "apply-doubled-on-1-1"])
def test_a_defect_only_the_oracle_sees_gets_the_full_loop_report(monkeypatch, attribute,
                                                                   planted, n):
    # each map still sends a into B and is additive along a, so the additivity
    # premise the oracle replaced would have passed
    monkeypatch.setattr(verifier, attribute, planted)
    ring = ModularRing(n)
    report = verify_ring(ring).to_json()
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["hom-oracle-agreement"] == "fail"
    monkeypatch.setattr(verifier._FiniteWorld, "certifies", lambda self, *laws: False)
    assert verify_ring(ring).to_json() == report


def _orders(n):
    """The orders of the objects of Z_n, in object order."""
    return [A._modulus for A in enumerate_objects(ModularRing(n))]


def test_the_composition_cases_are_counted_from_the_divisors():
    for n in [*range(2, 121), 360]:
        w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
        size = {key: len(homset) for key, homset in w.hom.items()}
        cases = sum(size[(A, B)] * size[(B, C)] for A, B, C in product(w.objects, repeat=3))
        assert verifier._composition_cases(_orders(n)) == cases, n


def test_the_case_limit_admits_720_and_refuses_840():
    assert verifier._composition_cases(_orders(720)) == 16_534_680 <= MAX_VERIFY_CASES
    assert verifier._composition_cases(_orders(840)) > MAX_VERIFY_CASES


@pytest.mark.parametrize("n", [6, 12, 60, 840])
def test_a_world_lists_the_ideals_of_its_ring_once(monkeypatch, n):
    """Its objects, whose orders also count the cases: a ring above the
    case limit, as zmod:840 is, is refused on that one listing."""
    calls = Counter()
    listing = ModularRing.ideal_generators

    def counted(ring):
        calls[ring.characteristic] += 1
        return listing(ring)

    monkeypatch.setattr(ModularRing, "ideal_generators", counted)
    if n > 720:
        with pytest.raises(ListingTooLarge, match="composition cases"):
            verifier._FiniteWorld(ModularRing(n))
    else:
        verifier._FiniteWorld(ModularRing(n))
    assert calls == {n: 1}


def test_listings_of_elements_are_bounded():
    """morphism_table and brute_force_hom_set list through ideal_elements and
    refuse an ideal of more than MAX_HOM_LISTING elements at once. No world
    the case limit admits meets that bound: Hom(<1>, <1>) alone is (n + 1)^2
    cases, counting <0>, so n < sqrt(MAX_VERIFY_CASES), and the CLI's
    oracle stops at ORACLE_MAX_MODULUS."""
    from idealcat.cli import ORACLE_MAX_MODULUS

    assert ORACLE_MAX_MODULUS < math.isqrt(MAX_VERIFY_CASES) < MAX_HOM_LISTING
    huge = ModularRing(10**12)
    one, zero = ideal_new(huge, [1]), ideal_new(huge, [0])
    start = time.perf_counter()
    for listing in (lambda: morphism_table(identity(one)),
                    lambda: brute_force_hom_set(one, one),
                    lambda: brute_force_hom_set(one, zero),
                    lambda: brute_force_hom_set(zero, one)):
        with pytest.raises(ListingTooLarge, match=f"has {10**12} elements, above the listing "
                                                  f"limit {MAX_HOM_LISTING}$"):
            listing()
    assert time.perf_counter() - start < 1
    assert brute_force_hom_set(zero, zero) == [((0, 0),)]
    small = ideal_new(ModularRing(100_000), [1])
    assert len(morphism_table(identity(small))) == 100_000


def test_hom_tables_are_bounded_by_their_size():
    """|A| |B| table entries above MAX_VERIFY_CASES are refused after both
    listings and before any table is built; for <1> -> <1> over zmod:100000
    that is 10^10 entries, where zmod:4000 already took 11 s and 1.6 GB.
    Every world the case limit admits passes: it has at least n^2 cases,
    and |A| |B| <= n^2."""
    one = ideal_new(ModularRing(100_000), [1])
    start = time.perf_counter()
    with pytest.raises(ListingTooLarge, match=f"^the hom tables <1> -> <1> over zmod:100000 take "
                                              f"{10**10} entries, above the limit "
                                              f"{MAX_VERIFY_CASES}$"):
        brute_force_hom_set(one, one)
    assert time.perf_counter() - start < 1
    # one table of 10^5 entries is within the bound
    assert len(brute_force_hom_set(one, ideal_new(one.ring, [0]))) == 1
    for n in [*range(2, 121), 720, 4463]:
        assert verifier._composition_cases(_orders(n)) >= n * n, n


def test_a_shared_world_must_be_of_the_ring_and_the_laws_it_verifies():
    # both ran on: a report labelled zmod:6 with 4 fails, and 34 audit entries where zmod:6 has 8
    mutant = law_mutations()["compose-adds-multipliers"]
    w12 = verifier._FiniteWorld(ModularRing(12), mutant)
    for ring in (Z6, INTEGERS):
        with pytest.raises(RingMismatch, match=f"^a world of zmod:12 cannot verify {ring}$"):
            check_axioms(ring, laws=mutant, world=w12)
        with pytest.raises(RingMismatch, match=f"^a world of zmod:12 cannot verify {ring}$"):
            verifier.audit_existence(ring, world=w12)
    w6 = verifier._FiniteWorld(ModularRing(6), mutant)
    with pytest.raises(ValueError, match="other laws"):
        check_axioms(Z6, world=w6)
    # an equal ring and the same laws share the world; the audits take any laws
    assert check_axioms(Z6, laws=mutant, world=w6) == check_axioms(Z6, laws=mutant)
    assert verifier.audit_existence(Z6, world=w6) == verifier.audit_existence(Z6)
    assert len(verifier.audit_existence(Z6)) == 8


@pytest.mark.parametrize("n", [5040, 99991])
def test_verify_ring_refuses_a_ring_above_the_case_limit(n):
    # both ran on with no output; P1 alone takes about 10^9 and 10^10 compositions
    for verify in (verify_ring, check_axioms):
        with pytest.raises(ListingTooLarge, match=f"above the limit {MAX_VERIFY_CASES}$"):
            verify(ModularRing(n))


_ABOVE_THE_CASE_LIMIT = (r"^verifying zmod:\d+ takes at least \d+ composition cases, "
                         f"above the limit {MAX_VERIFY_CASES}$")


def test_search_cokernel_refuses_a_ring_above_the_case_limit_at_once():
    # a world of zmod:55440 lists 2,138,080 morphisms: 8.3 s and 521 MB peak
    one = ideal_new(ModularRing(55440), [1])
    doubling = morphism_new(one, one, 2)
    start = time.perf_counter()
    with pytest.raises(ListingTooLarge, match=_ABOVE_THE_CASE_LIMIT):
        search_cokernel(doubling)
    assert time.perf_counter() - start < 1


def test_search_biproduct_and_a_worldless_audit_refuse_a_ring_above_the_case_limit():
    ring = ModularRing(5040)
    one = ideal_new(ring, [1])
    with pytest.raises(ListingTooLarge, match=_ABOVE_THE_CASE_LIMIT):
        search_biproduct(one, one)
    with pytest.raises(ListingTooLarge, match=_ABOVE_THE_CASE_LIMIT):
        verifier.audit_existence(ring)


def test_a_world_refuses_a_ring_that_is_not_zmod():
    for ring in (INTEGERS, RATIONAL_POLYNOMIALS):
        with pytest.raises(RingMismatch, match="exhaustive enumeration needs Z_n"):
            verifier._FiniteWorld(ring)


@pytest.mark.parametrize("n", [6, 12, 24])
def test_p1_settles_the_hom_group_law(n):
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    assert verifier._hom_abelian(w) is None
    assert w.settled[verifier._cyclic_hom_sets] is None


@pytest.mark.parametrize("n", [6, 12, 24])
def test_p1_settles_bilinearity(n):
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    assert verifier._compose_bilinear(w) is None
    assert w.settled[verifier._cyclic_hom_sets] is None
    assert verifier._compose_bilinear not in w.settled


@pytest.mark.parametrize("n", [6, 12, 24])
def test_p1_settles_associativity(n):
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    assert verifier._compose_associative(w) is None
    assert verifier._compose_associative not in w.settled
    assert w.settled[verifier._cyclic_hom_sets] is None


def _compose_doubled_into_two(g, f):
    # the composite on <1> -> <1> -> <2> comes out doubled, so the bases compose
    # to z_2, not z_1, in Hom(<1>, <2>) of order 3: the table (i, j) -> 2ij holds
    # and 6 * 2 = 3 * 2 = 0 mod 3, but at (<1>, <1>, <1>, <2>) the cocycle reads
    # c_ABC c_ACD = 1 * 2 against c_BCD c_ABD = 2 * 2 mod 3
    h = compose(g, f)
    if (f.dom.generator, f.cod.generator, g.cod.generator) == (1, 1, 2):
        return hom_add(h, h)
    return h


def test_p1_fails_a_composition_table_that_is_not_associative(monkeypatch):
    laws = replace(STANDARD_LAWS, compose=_compose_doubled_into_two)
    triple = {"f": "rho(1;1;1)", "g": "rho(1;1;1)", "h": "rho(1;2;2)"}
    w = verifier._FiniteWorld(Z6, laws)
    assert verifier._cyclic_hom_sets(w) == {**triple, "law": "associativity"}
    report = check_axioms(Z6, laws=laws).to_json()
    assert {c["name"]: c["witness"] for c in report["checks"]}["compose-associative"] == triple
    monkeypatch.setattr(verifier._FiniteWorld, "certifies", lambda self, *laws: False)
    assert check_axioms(Z6, laws=laws).to_json() == report


def _compose_not_well_defined(g, f):
    # on <1> -> <3> -> <1>, with i = 1 for rho(1;3;3) and 2 for rho(1;0;3) and
    # j = 1 for rho(3;1;1) and 2 for rho(3;0;1), the composite has multiplier
    # i j mod 6: the table (i, j) -> ijc holds with c = 1, but 2c is not 0 mod 6
    if (f.dom.generator, f.cod.generator, g.cod.generator) == (1, 3, 1):
        i = {"rho(1;3;3)": 1, "rho(1;0;3)": 2}[f.literal]
        j = {"rho(3;1;1)": 1, "rho(3;0;1)": 2}[g.literal]
        return morphism_new(f.dom, g.cod, i * j)
    return compose(g, f)


def test_p1_needs_the_composite_of_the_bases_to_be_well_defined(monkeypatch):
    laws = replace(STANDARD_LAWS, compose=_compose_not_well_defined)
    w = verifier._FiniteWorld(Z6, laws)
    assert verifier._cyclic_hom_sets(w)["law"] == "composite of the bases"
    report = check_axioms(Z6, laws=laws).to_json()
    witness = {c["name"]: c["witness"] for c in report["checks"]}["compose-bilinear"]
    assert witness["law"] == "left distributivity", witness
    monkeypatch.setattr(verifier._FiniteWorld, "certifies", lambda self, *laws: False)
    assert check_axioms(Z6, laws=laws).to_json() == report


def _base_as_zero(A, B):
    """zero_morphism that returns the base of Hom(A, B), an enumerated map."""
    return _raw_morphism(A, B, enumerate_hom(A, B).base)


# Group-law defects planted in the verifier's namespace: P1 finds each, so
# every law runs its full loop.
GROUP_LAW_DEFECTS = {
    "negation-returns-its-argument": ("hom_neg", lambda f: f),
    "zero-is-the-base": ("zero_morphism", _base_as_zero),
}


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("defect", sorted(GROUP_LAW_DEFECTS))
def test_group_law_defects_fail_p1_and_get_the_full_loop_report(monkeypatch, defect, n):
    monkeypatch.setattr(verifier, *GROUP_LAW_DEFECTS[defect])
    ring = ModularRing(n)
    w = verifier._FiniteWorld(ring, STANDARD_LAWS)
    assert verifier._hom_abelian(w)
    assert w.settled[verifier._cyclic_hom_sets] is not None
    report = check_axioms(ring).to_json()
    witnesses = {c["name"]: c["witness"] for c in report["checks"] if c["status"] == "fail"}
    assert "hom-abelian-group" in witnesses, sorted(witnesses)
    assert "error" not in witnesses["hom-abelian-group"]
    monkeypatch.setattr(verifier._FiniteWorld, "certifies", lambda self, *laws: False)
    assert check_axioms(ring).to_json() == report


def _split_never_refused(e):
    try:
        return split_idempotent(e)
    except NotIdempotent:
        return Splitting(e.dom, identity(e.dom), identity(e.dom))


def _split_with_zero_retraction(e):
    B, g, f = split_idempotent(e)
    return Splitting(B, zero_morphism(e.dom, B), f)


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("split, law", [
    (_split_never_refused, "non-idempotent must be refused"),
    (_split_with_zero_retraction, "retraction after section is identity"),
], ids=["never-refused", "zero-retraction"])
def test_splitting_defects_reach_their_witnesses(n, split, law):
    report = check_axioms(ModularRing(n), laws=replace(STANDARD_LAWS, split=split))
    witness = {c.name: c.witness for c in report.checks}["idempotent-splitting"]
    assert witness["law"] == law, witness


def _compose_to_zero(g, f):
    """compose that sends every pair to the zero map, so distinct maps merge."""
    return zero_morphism(f.dom, g.cod)


@pytest.mark.parametrize("ring, mode", [(INTEGERS, FULL), (INTEGERS, PAPER),
                                        (RATIONAL_POLYNOMIALS, FULL)],
                         ids=["z-full", "z-paper", "qpoly"])
def test_a_compose_that_merges_maps_fails_both_criteria(monkeypatch, ring, mode):
    monkeypatch.setattr(verifier, "compose", _compose_to_zero)
    report = check_axioms(ring, Bounds(seed=0, samples=25), mode)
    witnesses = {c.name: c.witness for c in report.checks}
    assert witnesses["mono-criterion"]["law"] == "left cancellation"
    assert witnesses["epi-criterion"]["law"] == "right cancellation"


@pytest.mark.parametrize("ring", [INTEGERS, Z6], ids=["z", "zmod:6"])
def test_an_unknown_mode_is_a_usage_error(ring):
    # check_axioms(z) once reported 14 fails, and verify_ring(zmod:6) passed
    for run in (check_axioms, verify_ring):
        with pytest.raises(ValueError, match="mode must be one of"):
            run(ring, Bounds(samples=5), mode="bogus")


@pytest.mark.parametrize("bad", [{"max_abs": 0}, {"max_abs": -1}, {"samples": 0},
                                 {"max_degree": -1}])
def test_bounds_reject_values_that_cannot_be_sampled(bad):
    with pytest.raises(ValueError):
        Bounds(**bad)


def test_bounds_allow_a_single_sample():
    assert not check_axioms(INTEGERS, Bounds(samples=1)).failed


@pytest.mark.parametrize("samples", [1, 2, 3, 4, 5])
def test_checks_on_few_draws_run_at_least_one_case(samples):
    # samples // 5 was once 0 here, and six checks passed without a case
    calls = Counter()
    laws = _counting_laws(calls, "kernel", "split")
    assert not check_axioms(INTEGERS, Bounds(samples=samples), laws=laws).failed
    # kernel-zero-set calls kernel once per draw; kernel-universal and
    # idempotent-kernel call it on their few draws, idempotent-splitting splits
    assert calls["kernel"] > samples and calls["split"] > 0, calls


def test_mutation_catalogue_is_the_documented_five():
    assert sorted(law_mutations()) == [
        "add-multiplies-multipliers",
        "compose-adds-multipliers",
        "factorization-skips-image",
        "kernel-whole-domain",
        "splitting-identity-retraction",
    ]


def test_search_cokernel_examples():
    one, two, three = (ideal_new(Z6, [g]) for g in (1, 2, 3))
    zero_map = morphism_new(two, three, 0)
    found = search_cokernel(zero_map)
    assert CokernelPair(three, morphism_new(three, three, 1)) in found
    surj = morphism_new(one, two, 2)
    assert cokernel(surj) in search_cokernel(surj)
    # the audited counterexample: the rule refuses, the search certifies
    doubling = morphism_new(one, one, 2)
    with pytest.raises(CokernelDoesNotExist):
        cokernel(doubling)
    found = search_cokernel(doubling)
    assert CokernelPair(three, morphism_new(one, three, 3)) in found


def test_search_biproduct_examples():
    one, two, three, zero = (ideal_new(Z6, [g]) for g in (1, 2, 3, 0))
    found = search_biproduct(two, three)
    assert biproduct(two, three) in found
    # one for each pair of automorphisms of <2> and <3>: phi(3) phi(2) = 2
    assert len(found) == 2
    assert search_biproduct(zero, two)  # nonempty
    assert search_biproduct(one, one) == []
    # a pair of universal cones that is no biproduct: p1 i1 is rho(2;2;2)
    assert Biproduct(one, *(parse_morphism(Z6, m) for m in (
        "rho(1;2;2)", "rho(1;3;3)", "rho(2;1;1)", "rho(3;1;1)"))) not in found


def _biproduct_identities_hold(bp, A, B):
    """p_i i_j = δ_ij and i1 p1 + i2 p2 = 1, by compose and hom_add."""
    P, p1, p2, i1, i2 = bp
    return (compose(p1, i1) == identity(A) and compose(p2, i2) == identity(B)
            and compose(p1, i2) == zero_morphism(B, A)
            and compose(p2, i1) == zero_morphism(A, B)
            and hom_add(compose(i1, p1), compose(i2, p2)) == identity(P))


def _biproducts_by_definition(w, A, B):
    """The biproducts of A and B over every apex: the product cones and the
    coproduct cones that ``_universal_by_compose`` accepts, paired where the
    five identities hold."""
    found = []
    for P in w.objects:
        products = [(p1, p2) for p1, p2 in product(w.hom[(P, A)], w.hom[(P, B)])
                    if _universal_by_compose(w, P, (p1, p2), True) is None]
        coproducts = [(i1, i2) for i1, i2 in product(w.hom[(A, P)], w.hom[(B, P)])
                      if _universal_by_compose(w, P, (i1, i2), False) is None]
        found += [bp for bp in (Biproduct(P, *ps, *cs) for ps in products for cs in coproducts)
                  if _biproduct_identities_hold(bp, A, B)]
    return found


@pytest.mark.parametrize("n", range(2, 17))
def test_counting_hom_sets_keeps_every_biproduct_the_unbounded_search_finds(n):
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    for A, B in product(w.objects, repeat=2):
        assert search_biproduct(A, B) == _biproducts_by_definition(w, A, B), (A, B)
    # biproducts exist where the intersection is zero, so the lists are not all empty
    zero, two = ideal_new(ModularRing(n), []), ideal_new(ModularRing(n), [2])
    assert search_biproduct(zero, two)


@pytest.mark.parametrize("n", range(2, 25))
def test_every_listed_biproduct_meets_the_identities_and_the_pairing_contracts(n):
    # a universal product cone and a universal coproduct cone at one apex need
    # not meet the identities, and then pair_into_product(bp, 1, 0) misses
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    for A, B in product(w.objects, repeat=2):
        found = search_biproduct(A, B)
        if intersect(A, B).is_zero:
            assert biproduct(A, B) in found, (A, B)
        for bp in found:
            assert _biproduct_identities_hold(bp, A, B), bp
            for C in w.objects:
                for f1, f2 in product(w.hom[(C, A)], w.hom[(C, B)]):
                    h = pair_into_product(bp, f1, f2)
                    assert (compose(bp.p1, h), compose(bp.p2, h)) == (f1, f2), (bp, f1, f2)
                for g1, g2 in product(w.hom[(A, C)], w.hom[(B, C)]):
                    h = copair_from_coproduct(bp, g1, g2)
                    assert (compose(h, bp.i1), compose(h, bp.i2)) == (g1, g2), (bp, g1, g2)
                # and the h they give is the only one: every map C -> P and P -> C
                assert all(pair_into_product(bp, compose(bp.p1, h), compose(bp.p2, h)) == h
                           for h in w.hom[(C, bp.object)]), (bp, C)
                assert all(copair_from_coproduct(bp, compose(h, bp.i1), compose(h, bp.i2)) == h
                           for h in w.hom[(bp.object, C)]), (bp, C)


def test_the_biproduct_predicate_reads_the_sum_identity():
    # over <0> and <0> the zero maps through <1> meet p_i i_j = δ_ij, as the
    # identity of <0> is its zero map, but i1 p1 + i2 p2 = 0 is not 1 on <1>
    w = verifier._FiniteWorld(Z6, STANDARD_LAWS)
    zero, one = ideal_new(Z6, [0]), ideal_new(Z6, [1])
    out, into = zero_morphism(one, zero), zero_morphism(zero, one)
    assert not verifier._is_biproduct(w, zero, zero, Biproduct(one, out, out, into, into))
    assert verifier._is_biproduct(w, zero, zero, biproduct(zero, zero))


def test_the_biproduct_search_puts_only_biproducts_through_the_predicate(monkeypatch):
    # at the apex A + B the identities p_i i_j = δ_ij leave no other candidate
    w = verifier._FiniteWorld(ModularRing(12), STANDARD_LAWS)
    calls = Counter()
    is_biproduct = verifier._is_biproduct

    def counted(*args):
        calls["_is_biproduct"] += 1
        return is_biproduct(*args)

    monkeypatch.setattr(verifier, "_is_biproduct", counted)
    found = sum(len(verifier._search_biproduct(w, A, B))
                for A, B in product(w.objects, repeat=2))
    assert calls["_is_biproduct"] == found == 35, calls


@pytest.mark.parametrize("n, total", [(6, 15), (12, 35), (60, 315)])
def test_the_biproducts_over_all_pairs_number_as_the_identities_allow(n, total):
    # every universal product cone paired with every universal coproduct cone
    # gives 27, 99 and 3,267. Over a prime power q the pairs with a biproduct
    # are (<0>, B) and (B, <0>), with phi(|B|) each, one per automorphism of B,
    # and the phi(d) over d | q add up to q: 2q - 1 in all, and the totals
    # multiply over q
    assert _cone_totals(n)[1] == total


def test_counting_hom_sets_skips_most_cone_tests(monkeypatch):
    # audit_existence(zmod:12) ran 2,254 cone tests while every apex was tried
    calls = Counter()
    universal = verifier._universal

    def counted(*args):
        calls["universal"] += 1
        return universal(*args)

    monkeypatch.setattr(verifier, "_universal", counted)
    verifier.audit_existence(ModularRing(12))
    assert calls["universal"] <= 600, calls


def test_a_biproduct_exists_exactly_when_the_intersection_is_zero():
    # the rule's own condition, so the audit searches no pair the rule refuses;
    # intersections and sums are read from the elements, not from intersect.
    # Where A ∩ B != 0, hom-set sizes alone rule out every apex P: at some C,
    # hom(C, P) has fewer maps than there are cones (C -> A, C -> B), and the
    # maps of one hom-set have distinct residues, so some cone is hit no time
    for n in range(2, 61):
        w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
        size = {key: len(homset) for key, homset in w.hom.items()}
        for A, B in product(w.objects, repeat=2):
            found = verifier._search_biproduct(w, A, B)
            if set(w.elements[A]) & set(w.elements[B]) != {0}:
                assert found == [], (A, B)
                assert all(any(size[(C, P)] < size[(C, A)] * size[(C, B)] for C in w.objects)
                           for P in w.objects), (A, B)
            else:
                total = {(x + y) % n for x in w.elements[A] for y in w.elements[B]}
                assert found, (A, B)
                assert all(set(w.elements[bp.object]) == total for bp in found), (A, B)


def _cone_totals(n):
    """(Σ over maps f of the cokernels found, Σ over pairs (A, B) of the
    biproducts found) in L_(Z_n)."""
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    return (sum(len(verifier._search_cokernel(w, f)) for f in w.morphisms),
            sum(len(verifier._search_biproduct(w, A, B))
                for A, B in product(w.objects, repeat=2)))


# the prime powers exactly dividing n
PRIME_POWER_COMPONENTS = {6: (2, 3), 12: (4, 3), 36: (4, 9), 60: (4, 3, 5), 72: (8, 9),
                          90: (2, 9, 5)}


@pytest.mark.parametrize("n", PRIME_POWER_COMPONENTS)
def test_cone_totals_are_the_products_of_those_of_the_prime_power_components(n):
    # Z_n is the product of the Z_q over the prime powers q exactly dividing n,
    # so L_(Z_n) is the product of the L_(Z_q): maps, pairs of objects,
    # cokernels and biproducts are tuples of components, and each total over
    # Z_n is the product of the totals over the Z_q
    components = PRIME_POWER_COMPONENTS[n]
    assert math.prod(components) == n
    totals = [_cone_totals(q) for q in components]
    assert _cone_totals(n) == tuple(math.prod(column) for column in zip(*totals))


def _unbounded_search_cokernel(w, f):
    """The cokernel search over every apex: every map out of cod f goes
    through the cokernel predicate."""
    return [CokernelPair(E, p) for E in w.objects for p in w.hom[(f.cod, E)]
            if verifier._is_cokernel(w, f, E, p)]


@pytest.mark.parametrize("n", [*range(2, 17), 24, 30, 36, 48, 60])
def test_counting_killers_keeps_every_cokernel_the_unbounded_search_finds(n):
    # (The name predates the closed-form apex.) Every map of Z_n has a
    # cokernel: phi(e) pairs, all at the one ideal of order
    # e = |cod f| / |im f|, orders counted from the elements.
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    for f in w.morphisms:
        found = verifier._search_cokernel(w, f)
        assert found == _unbounded_search_cokernel(w, f), f
        if n <= 16:  # the public search builds a world per call
            assert search_cokernel(f) == found, f
        e = len(w.elements[f.cod]) // len({apply(f, x) for x in w.elements[f.dom]})
        assert len(found) == sum(math.gcd(k, e) == 1 for k in range(e)), f
        assert {len(w.elements[E]) for E, _ in found} == {e}, f


def test_the_one_cokernel_apex_skips_most_cone_tests(monkeypatch):
    # audit_existence(zmod:12) runs 174 cone tests at the one closed-form
    # apex, and ran 474 while every cokernel apex was tried
    calls = Counter()
    universal, rule = verifier._universal, verifier.cokernel

    def counted(*args):
        calls["universal"] += 1
        return universal(*args)

    def counted_rule(f):
        calls["cokernel"] += 1
        return rule(f)

    monkeypatch.setattr(verifier, "_universal", counted)
    monkeypatch.setattr(verifier, "cokernel", counted_rule)
    ring = ModularRing(12)
    verifier.audit_existence(ring)
    assert calls["universal"] <= 200, calls
    assert calls["cokernel"] == len(all_morphisms(ring)), calls  # once per morphism


@pytest.mark.parametrize("n", range(2, 37))
def test_the_residue_of_a_composite_is_its_canonical_multiplier(n):
    morphisms = all_morphisms(ModularRing(n))
    out_of = {}
    for g in morphisms:
        out_of.setdefault(g.dom, []).append(g)
    for f in morphisms:  # <0> domains included: residue 0 modulo 1
        for g in out_of[f.cod]:
            assert verifier._residue(g, f) == compose(g, f).multiplier.num, (f, g)


def _universal_by_compose(w, apex, legs, limit, f=None, compose=compose):
    """``_universal`` as it was when every hit key came from a Morphism that
    compose built, and, given f, a cone c was admitted when compose made f c
    (limit) or c f the zero map."""
    for C in w.objects:
        if limit:
            hits = Counter(tuple(compose(leg, h).multiplier.num for leg in legs)
                           for h in w.hom[(C, apex)])
            cones = product(*(w.hom[(C, leg.cod)] for leg in legs))
        else:
            hits = Counter(tuple(compose(h, leg).multiplier.num for leg in legs)
                           for h in w.hom[(apex, C)])
            cones = product(*(w.hom[(leg.dom, C)] for leg in legs))
        for cone in cones:
            key = tuple(g.multiplier.num for g in cone)
            if hits[key] != 1 and (f is None or (compose(f, cone[0]) if limit
                                                 else compose(cone[0], f)).is_zero):
                return C, cone
    return None


@pytest.mark.parametrize("n", [12, 24, 30])
def test_residue_cone_counts_match_the_morphism_building_count(n):
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    composites = {}

    def composed(g, f):  # the standard compose, once per pair of the world's maps
        key = id(g), id(f)
        try:
            return composites[key]
        except KeyError:
            composites[key] = gf = compose(g, f)
            return gf

    for apex, limit in product(w.objects, (True, False)):
        legs = [f for f in w.morphisms if (f.dom if limit else f.cod) == apex]
        # kernel-style (limit) and cokernel-style cones that kill f
        cases = [(leg, f) for leg in legs for f in w.morphisms
                 if (f.dom == leg.cod if limit else f.cod == leg.dom)]
        for leg, f in cases:
            miss = _universal_by_compose(w, apex, (leg,), limit, f, composed)
            assert verifier._universal(w, apex, leg, limit, f) == (
                miss and (miss[0], *miss[1])), (apex, leg, limit, f)


def test_set_operations_settle_every_object_of_a_passing_cone_test(monkeypatch):
    # a cone test counts its hits with a Counter only at an object where some
    # key is hit twice; no universal property fails over zmod:12, so no object
    # of any cone test needs one
    built = Counter()

    def counted(keys):
        built["Counter"] += 1
        return Counter(keys)

    monkeypatch.setattr(verifier, "Counter", counted)
    report = check_axioms(ModularRing(12))
    assert all(c.status == "pass" for c in report.checks)
    assert built["Counter"] == 0, built


def _kernel_leg_out_of_the_domain(f):
    """kernel whose leg is its inclusion but whose apex is dom f."""
    return KernelPair(f.dom, kernel(f).inclusion)


def _kernel_leg_into_the_ring(f):
    """kernel whose leg is the zero map into <1>, not into dom f."""
    K = kernel(f).object
    return KernelPair(K, zero_morphism(K, ideal_new(f.dom.ring, [1])))


def _kernel_leg_an_isomorphism(f):
    """kernel whose leg is the identity of its object, not a map into dom f:
    it factors every cone exactly once, so no cone is missed."""
    K = kernel(f).object
    return KernelPair(K, identity(K))


@pytest.mark.parametrize("planted, error", [
    # a leg whose dom is not the apex raises before any object is tested
    (_kernel_leg_out_of_the_domain, "NotComposable: cod <1> of f differs from dom <0> of g"),
    # a leg whose cod is not dom f raises before any object is tested
    (_kernel_leg_into_the_ring, "NotComposable: cod <1> of f differs from dom <0> of g"),
    # and so does one that misses no cone: the identity of the apex
    (_kernel_leg_an_isomorphism, "NotComposable: cod <0> of f differs from dom <1> of g"),
], ids=["dom-not-apex", "cod-not-dom-f", "iso-leg"])
def test_non_composable_kernel_legs_fail_kernel_universal_with_compose_error(planted, error):
    report = check_axioms(ModularRing(12), laws=replace(STANDARD_LAWS, kernel=planted))
    assert {c.name: c.witness for c in report.checks}["kernel-universal"] == {"error": error}


@pytest.mark.parametrize("limit", [True, False], ids=["limit", "colimit"])
def test_a_leg_that_misses_the_apex_raises_the_residue_text(limit):
    w = verifier._FiniteWorld(Z6, STANDARD_LAWS)
    apex, other = ideal_new(Z6, [2]), ideal_new(Z6, [3])
    h = w.hom[(w.objects[0], apex) if limit else (apex, w.objects[0])][0]
    # a limit leg must leave the apex, a colimit leg must enter it
    leg = w.hom[(other, apex) if limit else (apex, other)][-1]
    with pytest.raises(NotComposable) as residue:
        verifier._residue(leg, h) if limit else verifier._residue(h, leg)
    with pytest.raises(NotComposable) as universal:
        verifier._universal(w, apex, leg, limit, identity(apex))
    assert str(universal.value) == str(residue.value)
    assert str(residue.value) == ("cod <2> of f differs from dom <3> of g" if limit
                                  else "cod <3> of f differs from dom <2> of g")


def _cancellable_by_compose(w, f, left):
    """Literal cancellation on the Morphisms that compose builds."""
    for X in w.objects:
        gs = w.hom[(X, f.dom)] if left else w.hom[(f.cod, X)]
        if len({compose(f, g) if left else compose(g, f) for g in gs}) != len(gs):
            return False
    return True


@pytest.mark.parametrize("n", range(2, 37))
def test_cancellation_on_residue_columns_matches_composing(n):
    w = verifier._FiniteWorld(ModularRing(n), STANDARD_LAWS)
    for f, left in product(w.morphisms, (True, False)):
        assert w.cancellable(f, left) == _cancellable_by_compose(w, f, left), (f, left)


def _world_answers(w):
    """What the world computes from composites of its own, on legs that compose."""
    answers = [verifier._universal(w, apex, leg, limit, f)
               for apex, limit in product(w.objects, (True, False))
               for leg in w.morphisms if (leg.dom if limit else leg.cod) == apex
               for f in w.morphisms if (f.dom == leg.cod if limit else f.cod == leg.dom)]
    answers += [(w.cancellable(f, True), w.cancellable(f, False)) for f in w.morphisms]
    answers.append(list(w.idempotents()))
    answers += [w.right_divisors(j, t) for j in w.morphisms for t in w.morphisms
                if j.cod == t.cod]
    answers += [verifier._search_cokernel(w, f) for f in w.morphisms]
    return answers


def test_the_worlds_own_composites_build_no_morphism(monkeypatch):
    ring = ModularRing(12)
    expected = _world_answers(verifier._FiniteWorld(ring, STANDARD_LAWS))

    def refuse(g, f):
        raise AssertionError("compose called")

    monkeypatch.setattr(verifier, "compose", refuse)
    assert _world_answers(verifier._FiniteWorld(ring, STANDARD_LAWS)) == expected


def _law_read_by_an_audit(*args):
    raise AssertionError("an audit called a law of the world's table")


# A table whose every law raises: checks that call a law fail with an error
# witness, and an audit that called one would raise.
RAISING_LAWS = LawTable(*[_law_read_by_an_audit] * 5)


@pytest.mark.parametrize("n", range(2, 37))
def test_the_audits_on_the_checks_world_equal_the_audits_alone(n):
    ring = ModularRing(n)
    alone = verifier.audit_existence(ring)
    checks = sum(finite is not None for _, finite, _ in verifier._CHECKS)
    # a mutant sends every law to its full loop, whose cost grows fast with n
    mutations = list(law_mutations().values()) if n <= 12 else []
    for laws in [STANDARD_LAWS, RAISING_LAWS, *mutations]:
        report = verify_ring(ring, Bounds(search_ceiling=n), laws=laws)
        assert len(report.checks) == checks + len(alone)
        assert report.checks[checks:] == alone


def test_one_verify_runs_the_cokernel_rule_once_per_map(monkeypatch):
    calls = Counter()
    rule = verifier.cokernel

    def counted_rule(f):
        calls["cokernel"] += 1
        return rule(f)

    monkeypatch.setattr(verifier, "cokernel", counted_rule)
    ring = ModularRing(12)
    report = verify_ring(ring)
    assert {"cokernel-universal", "cokernel-rule-agreement"} <= {c.name for c in report.checks}
    assert calls == {"cokernel": len(all_morphisms(ring))}, calls


# sha256 of verify_ring(zmod:n, Bounds(search_ceiling=n)), audits included,
# recorded while the biproduct search still tried every apex.
AUDITED_REPORT_SHA256 = {
    24: "e6927ee424ce94eb0a737b7526cd08328fb704ffe8669115e66b439e7db50ce1",
    36: "769fcd9ae9803a5160b906501332d6e636303680cd701100efaba141880a2ecf",
}


@pytest.mark.parametrize("n", sorted(AUDITED_REPORT_SHA256))
def test_audited_reports_match_the_recorded_digests(n):
    report = verify_ring(ModularRing(n), Bounds(search_ceiling=n))
    assert _sha256(report) == AUDITED_REPORT_SHA256[n]


# Witness keys whose values are prose; counts and flags are skipped by their type.
_PROSE_KEYS = {"law", "error", "rule", "certificate"}


def _witness_literals(witness):
    """(key, text) for every rendered value in a witness."""
    return [(key, value) for key, value in witness.items()
            if key not in _PROSE_KEYS and not isinstance(value, (bool, int))]


@pytest.mark.parametrize("n", [6, 12])
def test_mutant_witnesses_parse_back_into_the_ring(n):
    ring = ModularRing(n)
    objects = enumerate_objects(ring)
    seen = Counter()
    for laws in [*law_mutations().values(), *LOCAL_MUTANTS.values()]:
        report = check_axioms(ring, Bounds(seed=3, samples=20), FULL, laws)
        for check in report.checks:
            if check.witness is None:
                continue
            for key, text in _witness_literals(check.witness):
                if key == "x":
                    assert ring.parse_element(text) in ideal_elements(objects[1]), (key, text)
                elif text.startswith("rho("):
                    f = parse_morphism(ring, text)
                    assert f.literal == text
                    assert f in enumerate_hom(f.dom, f.cod).elements, (check.name, text)
                else:
                    A = parse_ideal(ring, text)
                    assert A.literal == text and A in objects, (check.name, text)
                seen[key] += 1
    assert seen["f"] and seen["x"] and seen["kernel"], seen


def test_verify_ring_z6_records_the_discrepancy():
    report = verify_ring(Z6)
    assert not report.failed
    by_name = {c.name: c for c in report.checks}
    assert by_name["cokernel-rule-agreement"].status == "pass"
    assert by_name["biproduct-rule-agreement"].status == "pass"
    entry = by_name["cokernel-converse[rho(1;2;1)]"]
    assert entry.status == "discrepancy"
    assert {"object": "<3>", "projection": "rho(1;3;3)"} in entry.witness["found"]
    # no biproduct the rule refuses exists in Z_6
    assert not [n for n in by_name if n.startswith("biproduct-converse")]


def test_the_audit_does_not_search_a_pair_the_biproduct_rule_refuses(monkeypatch):
    # no biproduct exists where A ∩ B != 0, so even a search that claims one
    # is neither called nor reported
    ring = ModularRing(12)
    zero = ideal_new(ring, [0])
    calls = []

    def planted(w, A, B):
        calls.append((A, B))
        return [biproduct(zero, zero)]

    monkeypatch.setattr(verifier, "_search_biproduct", planted)
    report = verify_ring(ring)
    assert not report.failed
    assert not [c.name for c in report.checks if c.name.startswith("biproduct-converse")]
    assert calls == []


def test_verify_ring_respects_search_ceiling():
    report = verify_ring(Z6, Bounds(search_ceiling=2))
    audits = [c.name for c in report.checks
              if "rule-agreement" in c.name or "-converse[" in c.name]
    assert audits == []


def test_sampled_values_too_long_to_print_fail_no_check():
    # What `verify --ring z --max-abs 10^3000` runs, with fewer samples: a
    # refused cokernel's message once raised ParseError rendering an image
    # too long to print, and cokernel-rule failed with that error
    report = verify_ring(INTEGERS, Bounds(max_abs=10**3000, samples=25))
    assert {c.name: c.status for c in report.checks}["cokernel-rule"] == "pass"
    assert not report.failed


def test_reports_are_deterministic():
    a = json.dumps(verify_ring(Z6, Bounds(seed=1)).to_json(), sort_keys=True)
    b = json.dumps(verify_ring(Z6, Bounds(seed=1)).to_json(), sort_keys=True)
    assert a == b
    a = json.dumps(check_axioms(INTEGERS, Bounds(seed=9, samples=60)).to_json())
    b = json.dumps(check_axioms(INTEGERS, Bounds(seed=9, samples=60)).to_json())
    assert a == b


def test_morphism_tables_injective_all_n_10():
    for n in range(2, 11):
        ring = ModularRing(n)
        morphisms = all_morphisms(ring)
        tables = {(f.dom, f.cod, morphism_table(f)) for f in morphisms}
        assert len(tables) == len(morphisms)


# sha256 of json.dumps(verify_ring(qpoly, Bounds(seed=s)).to_json(), sort_keys=True),
# recorded with the Fraction-coefficient Poly that tests/reference_poly.py keeps. A
# passing report holds no drawn value, so the digest is the same for every seed.
QPOLY_REPORT_SHA256 = "aa17937a31a5b9f556621cb8a0b8b5b2d92e7b23ac6da214f2d415a6522e27bf"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qpoly_report_matches_the_recorded_digest(seed):
    report = verify_ring(RATIONAL_POLYNOMIALS, Bounds(seed=seed)).to_json()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == QPOLY_REPORT_SHA256


# sha256 over the literal of every law result (compose, add, kernel, factorize,
# split) in the order verify_ring computes them, recorded with the
# Fraction-coefficient Poly: this pins the drawn values that a report leaves out.
QPOLY_LAW_TRACE_SHA256 = {
    (FULL, 0): "361f844616781479a82468418b208555c684b638923a066196b2e36f75c9c8f4",
    (FULL, 1): "effed4f4cda85eca79661a2ab2552e266e47cdab71e6cf3f8023d8283fc8f77d",
    (FULL, 2): "d187fcd739818e861eeeff5afa1362e86f41c4d2fff9ef3ee9a2b4c55a24ee9a",
    (PAPER, 0): "345c43c46189786c66158f9a8917c7d833224b08f051935c398884b94fa41401",
    (PAPER, 1): "f0969f5a981b432c4c39e38a9a5027b36e8562341d9c96317a2e92117ea745b0",
    (PAPER, 2): "f13784218697e20144bd71d52d352a46b50f65c8d5fc1edcb7aa34db3d75fa03",
}


def _literal(x) -> str:
    if hasattr(x, "literal"):
        return x.literal
    if isinstance(x, tuple):
        return "(" + ",".join(_literal(y) for y in x) + ")"
    return repr(x)


@pytest.mark.parametrize("mode,seed", sorted(QPOLY_LAW_TRACE_SHA256))
def test_qpoly_law_results_match_the_recorded_trace(mode, seed):
    h = hashlib.sha256()

    def logged(law):
        def run(*args):
            out = law(*args)
            h.update(_literal(out).encode() + b"\n")
            return out
        return run

    laws = replace(STANDARD_LAWS, **{name: logged(getattr(STANDARD_LAWS, name)) for name in
                                     ("compose", "add", "kernel", "factorize", "split")})
    verify_ring(RATIONAL_POLYNOMIALS, Bounds(seed=seed, samples=100), mode, laws)
    assert h.hexdigest() == QPOLY_LAW_TRACE_SHA256[(mode, seed)]
