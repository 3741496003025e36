"""Every single-point law defect over small Z_n fails check_axioms.

A point defect agrees with the standard law everywhere but at one point,
where it gives one wrong value drawn from where the right value lives: a
wrong map of the right hom-set for ``compose``, ``hom_add``,
``zero_morphism`` and ``hom_neg``, a wrong residue for ``apply``, and a
wrong tuple of maps between objects of the world for ``kernel``,
``factorize`` and ``split``. Over zmod:2..5 there are few enough of them to
plant each one and run the checks. The LawTable entries are planted through
a table, the rest in the verifier's namespace, as the generator-blind
defects of test_verifier are.

``split`` answers only at an idempotent e, and there a wrong tuple (B, g, f)
that still meets g f = 1_B and f g = e is no defect: it is a splitting of e,
as good as the rule's, since splittings are unique only up to isomorphism
(for an automorphism u of the image, (image, u q, j u^-1) is one). The
test plants those too and requires that they pass.
"""

from contextlib import nullcontext
from dataclasses import replace
from itertools import product
from typing import NamedTuple
from unittest import mock

import pytest

from idealcat import verifier
from idealcat.constructions import Factorization, KernelPair, Splitting
from idealcat.ideals import (
    apply,
    compose,
    enumerate_hom,
    enumerate_objects,
    hom_neg,
    identity,
    zero_morphism,
)
from idealcat.rings import ModularRing
from idealcat.verifier import STANDARD_LAWS, LawTable, check_axioms

MODULI = [2, 3, 4, 5]


class _Category:
    """The objects and hom-sets of Z_n, listed with the library's own rules."""

    def __init__(self, n):
        self.ring = ModularRing(n)
        self.objects = enumerate_objects(self.ring)
        self.hom = {(A, B): enumerate_hom(A, B).elements
                    for A, B in product(self.objects, repeat=2)}
        self.morphisms = [f for homset in self.hom.values() for f in homset]

    def others(self, right, homset):
        return [h for h in homset if h != right]


class _Defect(NamedTuple):
    """A wrong value at a point, planted in a law table or in the verifier's
    namespace (attribute, value); must_fail is False only where the wrong
    value is a right answer too."""

    point: tuple
    value: object
    laws: LawTable = STANDARD_LAWS
    planted: tuple | None = None
    must_fail: bool = True

    def __str__(self):
        return f"{', '.join(map(str, self.point))} -> {self.value}"


def _at(point, value, standard):
    """standard, but value at the arguments ``point``."""
    def law(*args):
        return value if args == point else standard(*args)
    return law


def _compose_defects(c):
    for f in c.morphisms:
        for C in c.objects:
            for g in c.hom[(f.cod, C)]:
                for h in c.others(compose(g, f), c.hom[(f.dom, C)]):
                    yield _Defect((g, f), h, laws=replace(
                        STANDARD_LAWS, compose=_at((g, f), h, compose)))


def _add_defects(c):
    add = STANDARD_LAWS.add
    for homset in c.hom.values():
        for f, g in product(homset, repeat=2):
            for h in c.others(add(f, g), homset):
                yield _Defect((f, g), h, laws=replace(STANDARD_LAWS, add=_at((f, g), h, add)))


def _apply_defects(c):
    n = c.ring.characteristic
    for f in c.morphisms:
        for x in range(0, n, f.dom.generator or n):
            for y in range(n):
                if y != apply(f, x):
                    yield _Defect((f, x), y, planted=("apply", _at((f, x), y, apply)))


def _zero_defects(c):
    for (A, B), homset in c.hom.items():
        for h in c.others(zero_morphism(A, B), homset):
            yield _Defect((A, B), h, planted=("zero_morphism", _at((A, B), h, zero_morphism)))


def _neg_defects(c):
    for f in c.morphisms:
        for h in c.others(hom_neg(f), c.hom[(f.dom, f.cod)]):
            yield _Defect((f,), h, planted=("hom_neg", _at((f,), h, hom_neg)))


def _kernel_defects(c):
    kernel = STANDARD_LAWS.kernel
    for f in c.morphisms:
        for K in c.objects:
            for j in c.hom[(K, f.dom)]:
                wrong = KernelPair(K, j)
                if wrong != kernel(f):
                    yield _Defect((f,), wrong, laws=replace(
                        STANDARD_LAWS, kernel=_at((f,), wrong, kernel)))


def _factorize_defects(c):
    factorize = STANDARD_LAWS.factorize
    for f in c.morphisms:
        for X in c.objects:
            for q, j in product(c.hom[(f.dom, X)], c.hom[(X, f.cod)]):
                wrong = Factorization(q, j)
                if wrong != factorize(f):
                    yield _Defect((f,), wrong, laws=replace(
                        STANDARD_LAWS, factorize=_at((f,), wrong, factorize)))


def _splits(e, B, g, f):
    """Whether (B, g, f) splits e: g f = 1_B and f g = e."""
    return compose(g, f) == identity(B) and compose(f, g) == e


def _split_defects(c):
    split = STANDARD_LAWS.split
    for e in c.morphisms:
        if e.dom != e.cod or compose(e, e) != e:
            continue
        for B in c.objects:
            for g, f in product(c.hom[(e.dom, B)], c.hom[(B, e.dom)]):
                wrong = Splitting(B, g, f)
                if wrong != split(e):
                    yield _Defect((e,), wrong, laws=replace(
                        STANDARD_LAWS, split=_at((e,), wrong, split)),
                        must_fail=not _splits(e, B, g, f))


DEFECTS = {
    "compose": _compose_defects,
    "add": _add_defects,
    "apply": _apply_defects,
    "zero_morphism": _zero_defects,
    "hom_neg": _neg_defects,
    "kernel": _kernel_defects,
    "factorize": _factorize_defects,
    "split": _split_defects,
}


def survivors(law: str, n: int) -> tuple[int, list[str]]:
    """(how many defects of ``law`` were planted over zmod:n, each one whose
    report did not fail, or failed where the wrong value is right too)."""
    defects = list(DEFECTS[law](_Category(n)))
    missed = []
    for defect in defects:
        with mock.patch.object(verifier, *defect.planted) if defect.planted else nullcontext():
            failed = check_axioms(ModularRing(n), laws=defect.laws).failed
        if failed != defect.must_fail:
            missed.append(str(defect))
    return len(defects), missed


@pytest.mark.parametrize("n", MODULI, ids=[f"zmod:{n}" for n in MODULI])
@pytest.mark.parametrize("law", sorted(DEFECTS))
def test_every_single_point_defect_fails_the_checks(law, n):
    planted, missed = survivors(law, n)
    assert planted and not missed, missed
