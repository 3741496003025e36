"""Independent arithmetic for generating literals and checking results.

Nothing here calls idealcat. Integers are Python ints, rationals are
``fractions.Fraction`` and polynomials are tuples of Fractions, lowest
degree first, with no trailing zero. The benchmark uses these to write the
literals it sends and to recompute what each answer must be.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# polynomials over Q


def pnorm(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pnorm(out)


def padd(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return pnorm((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def peval(p, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def pfmt(p: tuple) -> str:
    """A qpoly literal, highest degree first, e.g. ``3/2x^2-x+5``."""
    if not p:
        return "0"
    out = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        num = str(mag.numerator) + (f"/{mag.denominator}" if mag.denominator != 1 else "")
        var = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
        out.append(sign + num + var)
    return "".join(out)


def ratfun_equal(num_a, den_a, num_b, den_b) -> bool:
    """num_a/den_a == num_b/den_b as rational functions: the cross products
    agree at more integer points than their degree."""
    degree = max(len(num_a) + len(den_b), len(num_b) + len(den_a))
    return all(
        peval(num_a, t) * peval(den_b, t) == peval(num_b, t) * peval(den_a, t)
        for t in range(degree + 1)
    )


# ---------------------------------------------------------------------------
# integers modulo n


def canon_mod(x: int, n: int) -> int:
    """Canonical generator of the ideal <x> in Z_n: gcd(x, n), with n as 0."""
    return math.gcd(x, n) % n


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def factorize(m: int) -> list[int]:
    """Prime powers whose product is m."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    if m > 1:
        out.append(m)
    return out


def hom_step(a: int, b: int, n: int) -> int:
    """Smallest positive multiplier step of Hom(<a>, <b>) over Z_n, both
    canonical with a != 0: s is valid exactly when this divides s."""
    m = n // a
    return m if b == 0 else b // math.gcd(a, b)


def kernel_gen_mod(a: int, s: int, n: int) -> int:
    """Canonical generator of {k*a : k*a*s = 0 mod n}."""
    if a == 0:
        return 0
    return canon_mod(a * (n // math.gcd(n, a * s)), n)


def image_gen_mod(a: int, s: int, n: int) -> int:
    return canon_mod(a * s, n)
