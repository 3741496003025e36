"""DOT rendering of the subideal order of a Z_n backend."""

from __future__ import annotations

from .ideals import Ideal, enumerate_objects, is_subideal
from .rings import Ring


def covering_pairs(objects: list[Ideal]) -> list[tuple[Ideal, Ideal]]:
    """Pairs (A, B) with A strictly below B and nothing strictly between, for
    any list of ideals of one ring. The search tests every pair and every
    object between, so it is cubic in len(objects)."""
    covers = []
    for A in objects:
        for B in objects:
            if A == B or not is_subideal(A, B):
                continue
            if any(
                C != A and C != B and is_subideal(A, C) and is_subideal(C, B)
                for C in objects
            ):
                continue
            covers.append((A, B))
    return covers


def _divisor_covers(objects: list[Ideal]) -> list[tuple[Ideal, Ideal]]:
    """covering_pairs for objects == enumerate_objects(ring) over a Z_n, and
    only for that list: every ideal of one Z_n.

    An ideal of the cyclic group Z_n is fixed by its order |A| = A._modulus,
    and A lies in B exactly when |A| divides |B|. So B covers A exactly when
    |B| / |A| is a prime. The primes dividing n are the orders above 1 that
    no smaller such prime divides. This takes time proportional to the
    number of ideals times the number of primes.
    """
    index = {A._modulus: i for i, A in enumerate(objects)}
    primes: list[int] = []
    for order in sorted(index)[1:]:
        if all(order % p for p in primes):
            primes.append(order)
    covers = []
    for A in objects:
        above = sorted(index[A._modulus * p] for p in primes if A._modulus * p in index)
        covers += [(A, objects[i]) for i in above]
    return covers


def poset_dot(ring: Ring) -> str:
    """A DOT digraph of the Hasse diagram: one node per ideal, one edge per
    covering relation, edges pointing from smaller to larger."""
    objects = enumerate_objects(ring)
    lines = ["digraph subideals {", "  rankdir=BT;"]
    for A in objects:
        lines.append(f'  "{A.literal}";')
    for A, B in _divisor_covers(objects):
        lines.append(f'  "{A.literal}" -> "{B.literal}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
