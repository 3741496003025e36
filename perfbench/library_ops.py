"""The library-ops workload: a seeded stream of single requests through the
public API, made the way ``idealcat.cli._run`` makes them but without
argparse: parse the literals, run one operation, render the result as a
literal or as JSON.

Every request carries only literals. The expected outcome of each one is
worked out at generation time by ``oracle`` (plain int, Fraction and
tuple-polynomial arithmetic) and kept beside the request, never shown to
the program. Checks parse each answer back, require it to render to the
same text, and compare its values with the expectation.

Sizes are capped so that every request stays bounded: hom-sets list at
most HOM_CAP elements, ``oracle`` runs only for n <= ORACLE_MAX_N with
domains of at most ORACLE_MAX_M elements, and ``poset`` only for moduli
with at most POSET_MAX_DIVISORS divisors.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple
from fractions import Fraction

import idealcat as ic
import oracle as O
from idealcat import formats
from idealcat.errors import DoesNotExist, IdealCatError

HOM_CAP = 512
ORACLE_MAX_N = 64
ORACLE_MAX_M = 16
POSET_MAX_DIVISORS = 40
PASS_REQUESTS = 5000
WARM_UP_REQUESTS = 60
# moduli with many divisors, up to 10^5; the stream draws 60 % of its
# Z_n rings from these
COMPOSITE_MODULI = (12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840, 1260, 1680,
                    2520, 5040, 7560, 10080, 15120, 20160, 25200, 27720, 45360,
                    50400, 55440, 83160)
OP_WEIGHTS = {
    "homs": 10, "compose": 14, "add": 10, "apply": 9, "kernel": 8, "cokernel": 11,
    "biproduct": 11, "factor": 7, "split": 10, "objects": 3, "poset": 2, "oracle": 2,
    "json-morphism": 5, "json-ideal": 2, "malformed": 5,
}
SEP = (",", ":")

Request = namedtuple("Request", "op ring mode args as_json")
State = namedtuple("State", "seed requests expected probes")


# ---------------------------------------------------------------------------
# rings as the generator sees them


class ZnGen:
    """Z_n: elements are ints, multiplier values are ints mod n."""

    def __init__(self, n: int):
        self.n = n
        self.lit = f"zmod:{n}"

    @classmethod
    def at(cls, v: float) -> ZnGen:
        """The modulus at quantile v: 60 % highly composite, the rest
        log-uniform on [2, 10^5]."""
        if v < 0.6:
            return cls(COMPOSITE_MODULI[int(v / 0.6 * len(COMPOSITE_MODULI))])
        return cls(int(math.exp(math.log(2) + (v - 0.6) / 0.4 * math.log(50_000))))

    def elem(self, rng):
        n = self.n
        if rng.random() < 0.7:  # a divisor times a random residue
            return rng.choice(O.divisors(n)) * rng.randrange(1, n) % n
        return rng.randrange(n)

    def ideal(self, rng, max_hom: int | None = None):
        """A generator whose canonical form leaves Hom(<g>, -) small enough."""
        while True:
            g = self.elem(rng)
            c = O.canon_mod(g, self.n)
            if max_hom is None or c == 0 or self.n // c <= max_hom:
                return g

    def canon(self, x):
        return O.canon_mod(x, self.n)

    fmt = staticmethod(str)

    def mult(self, rng, a, c, mode, k=None):
        n = self.n
        a, c = self.canon(a), self.canon(c)
        if a == 0:
            s = rng.randrange(n)
        else:
            m = n // a
            k = rng.randrange(m) if k is None else k
            s = (O.hom_step(a, c, n) * k + m * rng.randrange(a)) % n
        return str(s), s

    def canon_mult(self, v, a):
        a = self.canon(a)
        return 0 if a == 0 else v % (self.n // a)

    def mult_matches(self, text, v, a):
        return int(text) == self.canon_mult(v, a)

    def vmul(self, u, v):
        return u * v

    def vadd(self, u, v):
        return u + v

    def vzero(self, v, a):
        return self.canon_mult(v, a) == 0

    def times(self, a, j):
        return (a * j) % self.n


class ZGen:
    """Z: big ints; multiplier values are Fractions."""

    lit = "z"
    zero = 0

    def elem(self, rng):
        digits = rng.choice((1, 1, 2, 3, 6, 12, 25, 40, 60))
        x = rng.randrange(1, 10 ** digits)
        return -x if rng.random() < 0.3 else x

    def ideal(self, rng, max_hom=None):
        return 0 if rng.random() < 0.05 else self.elem(rng)

    canon = staticmethod(abs)
    fmt = staticmethod(str)

    def mult(self, rng, a, c, mode, k=None):
        if k is None:
            k = rng.choice((0, 1, -1, rng.randint(-30, 30)))
        if a == 0:
            v = Fraction(rng.randint(-99, 99), rng.randint(1, 9) if mode == ic.FULL else 1)
            return str(v), v
        if mode == ic.PAPER:
            return str(c * k), Fraction(c * k)
        return f"{c * k}/{a}", Fraction(c * k, a)

    def canon_mult(self, v, a):
        return Fraction(0) if a == 0 else v

    def mult_matches(self, text, v, a):
        return Fraction(text) == self.canon_mult(v, a)

    def vmul(self, u, v):
        return u * v

    def vadd(self, u, v):
        return u + v

    def vzero(self, v, a):
        return self.canon_mult(v, a) == 0

    def times(self, a, j):
        return a * j


class QPolyGen:
    """Q[x]: elements are coefficient tuples; multiplier values are
    (numerator, denominator) tuple pairs."""

    lit = "qpoly"
    zero = ()

    def _poly(self, rng, degree):
        while True:
            p = O.pnorm(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(degree + 1))
            if p:
                return p

    def elem(self, rng):
        return self._poly(rng, rng.randint(0, 8))

    def ideal(self, rng, max_hom=None):
        return () if rng.random() < 0.05 else self._poly(rng, rng.randint(0, 4))

    def canon(self, x):
        return O.pnorm(c / x[-1] for c in x) if x else ()

    fmt = staticmethod(O.pfmt)

    def mult(self, rng, a, c, mode, k=None):
        if k is None:
            k = rng.choice(((), (Fraction(1),), self._poly(rng, 0), self._poly(rng, 2)))
        if not a:
            v = (self._poly(rng, 2), (Fraction(1),))
            return O.pfmt(v[0]), v
        num = O.pmul(c, k)
        if mode == ic.PAPER:
            return O.pfmt(num), (num, (Fraction(1),))
        return f"({O.pfmt(num)})/({O.pfmt(a)})", (num, a)

    def canon_mult(self, v, a):
        return ((), (Fraction(1),)) if not a else v

    def mult_matches(self, text, v, a):
        got = ic.parse_fraction(ic.RATIONAL_POLYNOMIALS, text)
        num, den = self.canon_mult(v, a)
        return O.ratfun_equal(got.num.coeffs, got.den.coeffs, num, den)

    def vmul(self, u, v):
        return O.pmul(u[0], v[0]), O.pmul(u[1], v[1])

    def vadd(self, u, v):
        return O.padd(O.pmul(u[0], v[1]), O.pmul(v[0], u[1])), O.pmul(u[1], v[1])

    def vzero(self, v, a):
        return not self.canon_mult(v, a)[0]

    def times(self, a, j):
        return O.pmul(a, j)


def _ring(op: str, u: float):
    """The ring at quantile u of the op's ring mix."""
    if op == "oracle":
        return ZnGen(2 + int(u * (ORACLE_MAX_N - 1)))
    if op in ("objects", "poset"):  # mostly Z_n; the rest is refused
        if u < 0.15:
            return ZGen() if u < 0.075 else QPolyGen()
        return ZnGen.at((u - 0.15) / 0.85)
    if u < 0.35:
        return ZGen()
    if u < 0.75:
        return ZnGen.at((u - 0.35) / 0.4)
    return QPolyGen()


def _rho(R, a, s_text, b):
    return f"rho({R.fmt(a)};{s_text};{R.fmt(b)})"


# ---------------------------------------------------------------------------
# generation: each returns (args, (exit_class, facts)); facts are read only
# by check()


def _gen_homs(rng, R, mode):
    a, b = R.ideal(rng, HOM_CAP), R.ideal(rng)
    if isinstance(R, ZnGen):
        a_, b_ = R.canon(a), R.canon(b)
        m = 1 if a_ == 0 else R.n // a_
        count = 1 if a_ == 0 else m // O.hom_step(a_, b_, R.n)
        return (f"<{a}>", f"<{b}>"), (0, {"modulus": m, "count": count, "a": a_, "b": b_})
    return (f"<{R.fmt(a)}>", f"<{R.fmt(b)}>"), (0, {"a": a, "b": b})


def _gen_compose(rng, R, mode):
    a, b, c = R.ideal(rng), R.ideal(rng), R.ideal(rng)
    t1, v1 = R.mult(rng, a, b, mode)
    t2, v2 = R.mult(rng, b, c, mode)
    # "compose F G" is F after G: F = <b> -> <c>, G = <a> -> <b>
    return (_rho(R, b, t2, c), _rho(R, a, t1, b)), \
        (0, {"mult": R.canon_mult(R.vmul(v1, v2), a), "a": a})


def _gen_add(rng, R, mode):
    a, b = R.ideal(rng), R.ideal(rng)
    t1, v1 = R.mult(rng, a, b, mode)
    t2, v2 = R.mult(rng, a, b, mode)
    return (_rho(R, a, t1, b), _rho(R, a, t2, b)), \
        (0, {"mult": R.canon_mult(R.vadd(v1, v2), a), "a": a})


def _gen_apply(rng, R, mode):
    a, b = R.ideal(rng), R.ideal(rng)
    t, v = R.mult(rng, a, b, mode)
    j = R.elem(rng) if not isinstance(R, ZnGen) else rng.randrange(R.n)
    x = R.times(a, j)
    if isinstance(R, ZGen) and abs(a) > 1 and rng.random() < 0.3:
        return (_rho(R, a, t, b), str(x + 1)), (1, {"error": "NotInDomain"})
    return (_rho(R, a, t, b), R.fmt(x)), (0, {"x": x, "mult": v})


def _gen_kernel(rng, R, mode):
    a, b = R.ideal(rng), R.ideal(rng)
    t, v = R.mult(rng, a, b, mode)
    return (_rho(R, a, t, b),), (0, {"a": a, "mult": v})


def _gen_cokernel(rng, R, mode):
    a, c = R.ideal(rng), R.ideal(rng)
    if isinstance(R, ZnGen):
        t, v = R.mult(rng, a, c, mode)
        a_, c_ = R.canon(a), R.canon(c)
        zero = R.vzero(v, a)
        surj = O.image_gen_mod(a_, v, R.n) == c_
        cls = 0 if zero or surj else 2
        return (_rho(R, a, t, c),), (cls, {"zero": zero, "cod": c_})
    k = (rng.choice((0, 1, -1, rng.randint(2, 9))) if isinstance(R, ZGen)
         else rng.choice(((), (Fraction(3),), R._poly(rng, 1))))
    t, v = R.mult(rng, a, c, mode, k)
    zero = R.vzero(v, a)
    if isinstance(R, ZGen):
        image_is_cod = abs(c * k if mode == ic.FULL else a * c * k) == abs(c)
    else:
        unit = len(k) == 1 and (mode == ic.FULL or len(a) == 1)
        image_is_cod = unit
    cls = 0 if zero or image_is_cod else 2
    return (_rho(R, a, t, c),), (cls, {"zero": zero, "cod": R.canon(c)})


def _gen_biproduct(rng, R, mode):
    a, b = R.ideal(rng), R.ideal(rng)
    if isinstance(R, ZnGen):
        a_, b_ = R.canon(a), R.canon(b)
        if rng.random() < 0.5:  # pick a coprime factorization so it exists
            parts = O.factorize(R.n)
            rng.shuffle(parts)
            cut = rng.randint(0, len(parts))
            q1 = math.prod(parts[:cut])
            a_, b_ = R.canon(R.n // q1), R.canon(q1)
            a, b = a_, b_
        trivial = a_ == 0 or b_ == 0 or math.lcm(a_, b_) % R.n == 0
        return (f"<{a}>", f"<{b}>"), (0 if trivial else 2, {"a": a_, "b": b_})
    if rng.random() < 0.5:  # over a domain only a zero side gives a biproduct
        a = R.zero
    trivial = not a or not b
    return (f"<{R.fmt(a)}>", f"<{R.fmt(b)}>"), (0 if trivial else 2, {"a": a, "b": b})


def _gen_factor(rng, R, mode):
    a, b = R.ideal(rng), R.ideal(rng)
    t, v = R.mult(rng, a, b, mode)
    return (_rho(R, a, t, b),), (0, {"a": a, "mult": v, "cod": R.canon(b)})


def _gen_split(rng, R, mode):
    a = R.ideal(rng)
    if rng.random() < 0.15:
        b = R.ideal(rng)
        if R.canon(b) != R.canon(a):
            t, _ = R.mult(rng, a, b, mode)
            return (_rho(R, a, t, b),), (2, {})
    if isinstance(R, ZnGen):
        a_ = R.canon(a)
        m = 1 if a_ == 0 else R.n // a_
        if rng.random() < 0.75:  # an idempotent of Z_m by CRT
            parts = O.factorize(m) if m > 1 else []
            q1 = math.prod(p for p in parts if rng.random() < 0.5)
            q2 = m // q1
            s = (q2 * pow(q2, -1, q1)) % m if q1 > 1 else 0
        else:
            s = rng.randrange(m)
        s += m * rng.randrange(max(1, a_))
        s %= R.n
        idem = a_ == 0 or (s * s - s) % m == 0
        return (_rho(R, a, str(s), a),), (0 if idem else 2, {"a": a_, "mult": s})
    s = rng.choice((0, 1, 1, 2, -1))  # an integer multiplier is valid in both modes
    v = Fraction(s) if isinstance(R, ZGen) else (O.pnorm((s,)), (Fraction(1),))
    idem = s in (0, 1) or R.vzero(v, a)
    return (_rho(R, a, str(s), a),), (0 if idem else 2, {"a": a, "mult": v})


def _gen_listing(rng, R, mode):
    """objects and poset: only Z_n has finitely many ideals."""
    return (), ((0, {}) if isinstance(R, ZnGen) else (1, {"error": "InfiniteObjectClass"}))


def _gen_oracle(rng, R, mode):
    a, b = R.ideal(rng, ORACLE_MAX_M), R.ideal(rng)
    a_, b_ = R.canon(a), R.canon(b)
    n = R.n
    ys = [0] if a_ == 0 else [y for y in range(0, n, b_ or n) if (n // a_) * y % n == 0]
    return (f"<{a}>", f"<{b}>"), (0, {"a": a_, "ys": ys})


def _gen_json_morphism(rng, R, mode):
    a, b = R.ideal(rng), R.ideal(rng)
    t, v = R.mult(rng, a, b, mode)
    obj = {"dom": {"ring": R.lit, "gen": R.fmt(a)}, "mult": t,
           "cod": {"ring": R.lit, "gen": R.fmt(b)}}
    return (json.dumps(obj),), (0, {"a": a, "mult": v})


def _gen_json_ideal(rng, R, mode):
    a = R.ideal(rng)
    return (json.dumps({"ring": R.lit, "gen": R.fmt(a)}),), (0, {"gen": R.canon(a)})


# typed rejections: each literal must raise a subclass of IdealCatError
MALFORMED = (
    ("compose", ("rho(1;2)", "rho(1;1;1)")),
    ("kernel", ("rho(<1>;2;3)",)),
    ("homs", ("<1,,2>", "<1>")),
    ("homs", ("1", "<1>")),
    ("apply", ("rho(1;1/0;1)", "1")),
    ("json-ideal", ('{"ring":"zmod:1","gen":"0"}',)),
    ("json-ideal", ('{"ring":"q","gen":"1"}',)),
    ("json-morphism", ('{"dom":{"ring":"z","gen":"2"},"mult":"1/3",'
                       '"cod":{"ring":"z","gen":"4"}}',)),
)
MALFORMED_QPOLY = (
    ("kernel", ("rho(x^^2;1;1)",)),
    ("homs", ("<x+>", "<1>")),
    ("compose", ("rho(1;(x)/(0);1)", "rho(1;1;1)")),
)
# untyped failures of the seed commit (ROADMAP item 2): run outside the
# timed stream and reported as formats.untyped_errors
UNTYPED_PROBES = (
    ("json-ideal", "{}"),
    ("json-ideal", '{"ring":"z","gen":5}'),
    ("json-ideal", '{"ring":6,"gen":"1"}'),
    ("json-morphism", '{"dom":{"ring":"z","gen":"2"}}'),
    ("json-morphism", '[1,2]'),
)

GENERATORS = {
    "homs": _gen_homs, "compose": _gen_compose, "add": _gen_add, "apply": _gen_apply,
    "kernel": _gen_kernel, "cokernel": _gen_cokernel, "biproduct": _gen_biproduct,
    "factor": _gen_factor, "split": _gen_split, "objects": _gen_listing,
    "poset": _gen_listing, "oracle": _gen_oracle, "json-morphism": _gen_json_morphism,
    "json-ideal": _gen_json_ideal,
}


def _plan(rng, total: int) -> list[tuple[str, float]]:
    """(op, u) for a stratified pass: each op gets its share of the pass
    exactly, and its u values cover [0, 1) evenly, so every seed draws the
    same mix of rings and sizes and only the details differ."""
    weight = sum(OP_WEIGHTS.values())
    plan = []
    for op, w in OP_WEIGHTS.items():
        count = round(total * w / weight)
        plan += [(op, (j + rng.random()) / count) for j in range(count)]
    rng.shuffle(plan)
    return plan


def _draw(rng, op: str, u: float):
    mode = ic.PAPER if rng.random() < 0.3 else ic.FULL
    as_json = rng.random() < 0.6
    if op == "malformed":
        if rng.random() < 0.3:
            op, args = rng.choice(MALFORMED_QPOLY)
            return Request(op, "qpoly", mode, args, True), (1, {}, None)
        op, args = rng.choice(MALFORMED)
        return Request(op, "z", mode, args, True), (1, {}, None)
    R = _ring(op, u)
    while op == "poset" and isinstance(R, ZnGen) and len(O.divisors(R.n)) > POSET_MAX_DIVISORS:
        R = ZnGen(R.n - 1)  # the next smaller modulus, so the plan's sizes hold
    args, (cls, facts) = GENERATORS[op](rng, R, mode)
    return Request(op, R.lit, mode, args, as_json), (cls, facts, R)


def prepare(seed: int) -> State:
    rng = random.Random(f"library-ops:{seed}")
    requests, expected = [], []
    for op, u in _plan(rng, PASS_REQUESTS):
        req, exp = _draw(rng, op, u)
        requests.append(req)
        expected.append(exp)
    return State(seed, requests, expected, UNTYPED_PROBES)


# ---------------------------------------------------------------------------
# execution, as cli._run does it


def _dump(payload) -> str:
    return json.dumps(payload, separators=SEP)


def _morph_out(f, as_json):
    return _dump(formats.morphism_to_json(f)) if as_json else f.literal


def _run(req: Request) -> str:
    ring = ic.ring_from_literal(req.ring)
    mode, args, op = req.mode, req.args, req.op
    pm = formats.parse_morphism
    if op == "homs":
        hs = ic.enumerate_hom(formats.parse_ideal(ring, args[0]),
                              formats.parse_ideal(ring, args[1]), mode)
        return _dump(formats.homset_to_json(hs))
    if op == "compose":
        return _morph_out(ic.compose(pm(ring, args[0], mode), pm(ring, args[1], mode)),
                          req.as_json)
    if op == "add":
        return _morph_out(ic.hom_add(pm(ring, args[0], mode), pm(ring, args[1], mode)),
                          req.as_json)
    if op == "apply":
        value = ic.apply(pm(ring, args[0], mode), ring.parse_element(args[1]))
        return ring.format_element(value)
    if op == "kernel":
        return _dump(formats.kernel_to_json(ic.kernel(pm(ring, args[0], mode))))
    if op == "cokernel":
        return _dump(formats.cokernel_to_json(ic.cokernel(pm(ring, args[0], mode))))
    if op == "biproduct":
        bp = ic.biproduct(formats.parse_ideal(ring, args[0]),
                          formats.parse_ideal(ring, args[1]))
        return _dump(formats.biproduct_to_json(bp))
    if op == "factor":
        fact = ic.canonical_factorization(pm(ring, args[0], mode))
        return _dump(formats.factorization_to_json(fact))
    if op == "split":
        return _dump(formats.splitting_to_json(ic.split_idempotent(pm(ring, args[0], mode))))
    if op == "objects":
        lits = [A.literal for A in ic.enumerate_objects(ring)]
        return _dump(lits) if req.as_json else "\n".join(lits)
    if op == "poset":
        return ic.poset_dot(ring)
    if op == "oracle":
        tables = ic.brute_force_hom_set(formats.parse_ideal(ring, args[0]),
                                        formats.parse_ideal(ring, args[1]))
        return _dump(formats.tables_to_json(tables))
    if op == "json-morphism":
        f = formats.morphism_from_json(json.loads(args[0]), mode)
        return _dump(formats.morphism_to_json(f))
    if op == "json-ideal":
        return _dump(formats.ideal_to_json(formats.ideal_from_json(json.loads(args[0]))))
    raise ValueError(op)


def execute(state, req: Request, laws=None) -> str:
    """Exit class (0, 1 or 2, as the CLI maps them) and the rendered answer
    or the error type; any other exception is returned as ``untyped``."""
    try:
        return "0 " + _run(req)
    except DoesNotExist as exc:
        return f"2 {type(exc).__name__}"
    except IdealCatError as exc:
        return f"1 {type(exc).__name__}"
    except Exception as exc:  # an untyped failure is a result the check rejects
        return f"untyped {type(exc).__name__}"


def warm_up(state) -> None:
    for req in state.requests[:WARM_UP_REQUESTS]:
        execute(state, req)


def run_probes(state) -> int:
    """How many of the untyped-failure probes still fail untyped."""
    return sum(
        execute(state, Request(op, "z", ic.FULL, (text,), True)).startswith("untyped")
        for op, text in state.probes
    )


# ---------------------------------------------------------------------------
# checks


def _parse_back_morphism(ring, obj, mode):
    """A JSON morphism must parse back to a value that renders identically."""
    f = formats.morphism_from_json(obj, mode)
    if formats.morphism_to_json(f) != obj:
        raise AssertionError(f"morphism JSON does not round-trip: {obj}")
    g = formats.parse_morphism(ring, f.literal, mode)
    if g != f or g.literal != f.literal:
        raise AssertionError(f"literal {f.literal} does not round-trip")
    return f


def _parse_back_ideal(ring, text):
    A = formats.parse_ideal(ring, text)
    if A.literal != text:
        raise AssertionError(f"ideal literal {text} does not round-trip")
    return A


def _gen_value(R, A):
    """The independent value of a parsed ideal's canonical generator."""
    g = A.generator
    return g.coeffs if isinstance(R, QPolyGen) else g


def _check_one(req: Request, exp, out: str) -> str | None:
    """None if the answer is right, else what is wrong with it. ``exp`` is
    (exit class, facts, ring generator), the generator None for the
    malformed literals, which only need a typed error."""
    cls, facts, R = exp
    head, _, body = out.partition(" ")
    if head != str(cls):
        return f"exit class {head} ({body}), expected {cls} ({facts.get('error', '')})"
    if cls != 0:
        want = facts.get("error")
        return None if want is None or body == want else f"error {body}, expected {want}"
    ring = ic.ring_from_literal(req.ring)
    mode = req.mode
    op = req.op
    if op in ("compose", "add", "json-morphism"):
        obj = json.loads(body) if req.as_json or op == "json-morphism" else \
            formats.morphism_to_json(formats.parse_morphism(ring, body, mode))
        f = _parse_back_morphism(ring, obj, mode)
        if _gen_value(R, f.dom) != R.canon(facts["a"]):
            return "domain generator is not canonical"
        if not R.mult_matches(obj["mult"], facts["mult"], facts["a"]):
            return f"multiplier {obj['mult']} disagrees with independent arithmetic"
        return None
    if op == "apply":
        x, v = facts["x"], facts["mult"]
        if isinstance(R, ZnGen):
            return None if int(body) == (x * v) % R.n else "applied value is wrong"
        if isinstance(R, ZGen):
            return None if Fraction(int(body)) == x * v else "applied value is wrong"
        got = ring.parse_element(body).coeffs
        return None if O.ratfun_equal(got, (Fraction(1),), O.pmul(x, v[0]), v[1]) \
            else "applied value is wrong"
    if op == "json-ideal":
        obj = json.loads(body)
        A = formats.ideal_from_json(obj)
        if formats.ideal_to_json(A) != obj:
            return "ideal JSON does not round-trip"
        return None if _gen_value(R, A) == facts["gen"] else "ideal generator is not canonical"
    if op == "homs":
        obj = json.loads(body)
        dom = formats.ideal_from_json(obj["dom"])
        cod = formats.ideal_from_json(obj["cod"])
        if isinstance(R, ZnGen):
            if obj["modulus"] != facts["modulus"] or len(obj["elements"]) != facts["count"]:
                return "hom-set size disagrees with the divisor count"
            step = O.hom_step(facts["a"], facts["b"], R.n) if facts["a"] else 1
            for e in obj["elements"]:
                f = _parse_back_morphism(ring, e, mode)
                if int(e["mult"]) % step or (f.dom, f.cod) != (dom, cod):
                    return f"hom-set element {e['mult']} is not a valid multiplier"
            return None
        a, b = facts["a"], facts["b"]
        if not a or not b:
            want = (0, 1) if isinstance(R, ZGen) else ((), (Fraction(1),))
        elif isinstance(R, ZGen):
            want = (b, a) if mode == ic.FULL else (b // math.gcd(a, b), 1)
        else:
            want = (R.canon(b), R.canon(a)) if mode == ic.FULL else None
        if want is None:  # paper-mode Q[x] base b/gcd(a, b): check it divides b
            base = ic.parse_fraction(ring, obj["base"])
            return None if base.den == ic.RATIONAL_POLYNOMIALS.one else "paper base not integral"
        if isinstance(R, ZGen):
            ok = abs(Fraction(obj["base"])) == abs(Fraction(*want))
        else:
            base = ic.parse_fraction(ring, obj["base"])
            ok = O.ratfun_equal(base.num.coeffs, base.den.coeffs, *want)
        return None if ok else f"hom-set base {obj['base']} is wrong"
    if op == "kernel":
        obj = json.loads(body)
        K = _parse_back_ideal(ring, obj["object"])
        j = _parse_back_morphism(ring, obj["inclusion"], mode)
        a, v = facts["a"], facts["mult"]
        if isinstance(R, ZnGen):
            want = O.kernel_gen_mod(R.canon(a), v, R.n)
        else:
            want = R.canon(a) if R.vzero(v, a) else R.zero
        if _gen_value(R, K) != want or j.dom != K or not j.multiplier.is_one and not K.is_zero:
            return f"kernel {obj['object']} is wrong"
        return None
    if op == "cokernel":
        obj = json.loads(body)
        E = _parse_back_ideal(ring, obj["object"])
        p = _parse_back_morphism(ring, obj["projection"], mode)
        want = facts["cod"] if facts["zero"] else (0 if isinstance(R, ZnGen) else R.zero)
        if _gen_value(R, E) != want or p.cod != E:
            return f"cokernel object {obj['object']} is wrong"
        return None
    if op == "biproduct":
        obj = json.loads(body)
        P = _parse_back_ideal(ring, obj["object"])
        maps = {k: _parse_back_morphism(ring, obj[k], mode) for k in ("p1", "p2", "i1", "i2")}
        a, b = facts["a"], facts["b"]
        if isinstance(R, ZnGen):
            n = R.n
            g = math.gcd(a, b, n) % n
            s1, s2 = int(obj["p1"]["mult"]), int(obj["p2"]["mult"])
            ok = (_gen_value(R, P) == g
                  and (a == 0 or (s1 - 1) % (n // a) == 0)
                  and (b == 0 or (s2 - 1) % (n // b) == 0)
                  and (b * s1) % n == 0 and (a * s2) % n == 0
                  and (g * (s1 + s2 - 1)) % n == 0)
        else:
            ok = _gen_value(R, P) == R.canon(a or b)
        if not ok or maps["i1"].cod != P or maps["p2"].dom != P:
            return "biproduct equations fail in independent arithmetic"
        return None
    if op == "factor":
        obj = json.loads(body)
        q = _parse_back_morphism(ring, obj["q"], mode)
        j = _parse_back_morphism(ring, obj["j"], mode)
        a, v = facts["a"], facts["mult"]
        if isinstance(R, ZnGen):
            want = 0 if R.canon(a) == 0 else O.image_gen_mod(R.canon(a), v, R.n)
            ok = _gen_value(R, q.cod) == want
        elif R.vzero(v, a):
            ok = q.cod.is_zero
        elif isinstance(R, ZGen):
            ok = Fraction(q.cod.generator) == abs(a * v)
        else:  # the image a*s up to the unit that makes it monic
            num, den = v
            top = O.pmul(a, num)
            unit = (top[-1] / den[-1],)
            ok = O.ratfun_equal(q.cod.generator.coeffs, (Fraction(1),), top, O.pmul(den, unit))
        if not ok or j.dom != q.cod or not (j.multiplier.is_one or j.dom.is_zero):
            return "factorization image is wrong"
        return None
    if op == "split":
        obj = json.loads(body)
        B = _parse_back_ideal(ring, obj["object"])
        r = _parse_back_morphism(ring, obj["retraction"], mode)
        sec = _parse_back_morphism(ring, obj["section"], mode)
        if isinstance(R, ZnGen):
            a, s, n = facts["a"], facts["mult"], R.n
            b = O.image_gen_mod(a, s, n) if a else 0
            ok = _gen_value(R, B) == b and (b * (s - 1)) % n == 0
        else:
            ok = B.is_zero == R.vzero(facts["mult"], facts["a"])
        if not ok or r.cod != B or sec.dom != B or not (sec.multiplier.is_one or B.is_zero):
            return "splitting is wrong"
        return None
    if op == "objects":
        lits = json.loads(body) if req.as_json else body.split("\n")
        want = sorted(d % R.n for d in O.divisors(R.n))
        return None if lits == [f"<{d}>" for d in want] else "object list is wrong"
    if op == "poset":
        return _check_poset(R.n, body)
    if op == "oracle":
        obj = json.loads(body)
        a, n = facts["a"], R.n
        if obj["count"] != len(facts["ys"]) or len(obj["tables"]) != obj["count"]:
            return "oracle count is wrong"
        for table, y in zip(obj["tables"], facts["ys"]):
            pairs = {int(x): int(z) for x, z in table}
            if a and any((z - (x // a) * y) % n for x, z in pairs.items()):
                return "oracle table is not k*a -> k*y"
        return None
    return f"no check for {op}"


def _check_poset(n: int, dot: str) -> str | None:
    divs = O.divisors(n)
    nodes = {f'  "<{d % n}>";' for d in divs}
    edges = {f'  "<{d1 % n}>" -> "<{d2 % n}>";'
             for d1 in divs for d2 in divs if d1 % d2 == 0 and O.is_prime(d1 // d2)}
    lines = dot.rstrip("\n").split("\n")
    if lines[:2] != ["digraph subideals {", "  rankdir=BT;"] or lines[-1] != "}":
        return "poset DOT frame is wrong"
    body = lines[2:-1]
    if set(body) != nodes | edges or len(body) != len(nodes) + len(edges):
        return "poset nodes or covering edges are wrong"
    return None


def check(state: State, outputs: list[str]) -> list[tuple[int, str]]:
    problems = []
    for i, (req, exp, out) in enumerate(zip(state.requests, state.expected, outputs)):
        try:
            msg = _check_one(req, exp, out)
        except Exception as exc:  # a malformed answer is a failed check, not a crash
            msg = f"answer did not parse back: {type(exc).__name__}: {exc}"
        if msg:
            problems.append((i, f"{req.op} {req.ring} {req.args}: {msg}"))
    return problems
