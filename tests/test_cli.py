import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealcat
from idealcat import cli
from idealcat.cli import _COMMANDS, main
from idealcat.errors import ParseError, RingMismatch
from idealcat.formats import (
    ideal_from_json,
    ideal_to_json,
    morphism_from_json,
    morphism_to_json,
    parse_ideal,
    parse_morphism,
)
from idealcat.ideals import (
    MAX_VERIFY_CASES,
    apply,
    enumerate_hom,
    enumerate_objects,
    ideal_new,
    morphism_new,
)
from idealcat.rings import INTEGERS, RATIONAL_POLYNOMIALS, ModularRing, ring_from_literal

Z6 = ModularRing(6)


def test_objects(run_cli):
    code, out = run_cli("objects", "--ring", "zmod:6", "--json")
    assert code == 0
    assert out == '["<0>","<1>","<2>","<3>"]\n'
    code, out = run_cli("objects", "--ring", "zmod:6")
    assert code == 0 and out.splitlines() == ["<0>", "<1>", "<2>", "<3>"]


def test_objects_infinite_ring_is_usage_error(run_cli):
    code, _ = run_cli("objects", "--ring", "z")
    assert code == 1


def test_homs(run_cli):
    code, out = run_cli("homs", "--ring", "zmod:6", "<1>", "<2>", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["modulus"] == 6
    assert [m["mult"] for m in obj["elements"]] == ["0", "2", "4"]
    code, out = run_cli("homs", "--ring", "z", "<2>", "<3>", "--json")
    obj = json.loads(out)
    assert obj["base"] == "3/2" and obj["elements"] is None
    code, out = run_cli("homs", "--ring", "z", "<2>", "<3>", "--mode", "paper", "--json")
    assert json.loads(out)["base"] == "3"


def test_compose_and_add(run_cli):
    code, out = run_cli("compose", "--ring", "zmod:6",
                        "rho(2;3;3)", "rho(1;4;2)", "--json")
    assert code == 0 and json.loads(out)["mult"] == "0"
    code, out = run_cli("add", "--ring", "zmod:6", "rho(1;4;1)", "rho(1;3;1)")
    assert code == 0 and out.strip() == "rho(1;1;1)"
    code, _ = run_cli("compose", "--ring", "zmod:6", "rho(1;4;2)", "rho(2;3;3)")
    assert code == 1  # not composable in this order


def test_apply(run_cli):
    code, out = run_cli("apply", "--ring", "zmod:6", "rho(1;4;2)", "5", "--json")
    assert code == 0 and json.loads(out) == {"value": "2"}
    code, _ = run_cli("apply", "--ring", "z", "rho(2;3;3)", "3")
    assert code == 1  # 3 is not in <2>


def test_kernel(run_cli):
    code, out = run_cli("kernel", "--ring", "zmod:6", "rho(1;2;2)", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["object"] == "<3>"
    assert obj["inclusion"] == {
        "dom": {"ring": "zmod:6", "gen": "3"},
        "mult": "1",
        "cod": {"ring": "zmod:6", "gen": "1"},
    }


def test_cokernel_exit_codes(run_cli):
    code, out = run_cli("cokernel", "--ring", "z", "rho(2;0;3)", "--json")
    assert code == 0 and json.loads(out)["object"] == "<3>"
    code, out = run_cli("cokernel", "--ring", "z", "rho(2;3;3)", "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "CokernelDoesNotExist"


def test_biproduct(run_cli):
    code, out = run_cli("biproduct", "--ring", "zmod:6", "<2>", "<3>", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["object"] == "<1>"
    assert obj["p1"]["mult"] == "4" and obj["p2"]["mult"] == "3"
    code, out = run_cli("biproduct", "--ring", "z", "<2>", "<3>")
    assert code == 2


def test_factor_and_split(run_cli):
    code, out = run_cli("factor", "--ring", "z", "rho(2;3;3)", "--json")
    obj = json.loads(out)
    assert obj["q"]["cod"]["gen"] == "6" and obj["j"]["mult"] == "1"
    code, out = run_cli("split", "--ring", "zmod:6", "rho(1;4;1)", "--json")
    obj = json.loads(out)
    assert obj["object"] == "<2>"
    assert obj["retraction"]["mult"] == "4" and obj["section"]["mult"] == "1"
    code, _ = run_cli("split", "--ring", "zmod:6", "rho(1;2;1)")
    assert code == 2


def test_poset_dot(run_cli):
    code, out = run_cli("poset", "--ring", "zmod:12")
    assert code == 0
    assert out.startswith("digraph")
    # one node per object
    for node in ("<0>", "<1>", "<2>", "<3>", "<4>", "<6>"):
        assert f'"{node}";' in out
    # covers only: <0> is covered by the maximal proper ideals, not by <1>
    assert '"<0>" -> "<4>"' in out and '"<0>" -> "<6>"' in out
    assert '"<0>" -> "<1>"' not in out
    assert '"<2>" -> "<1>"' in out
    code, out = run_cli("poset", "--ring", "zmod:6", "--json")
    assert json.loads(out)["dot"].count("->") == 4


def test_verify_exit_zero_with_discrepancies(run_cli):
    code, out = run_cli("verify", "--ring", "zmod:6", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ring"] == "zmod:6"
    assert rep["totals"]["fail"] == 0
    names = {c["name"]: c for c in rep["checks"]}
    assert names["cokernel-converse[rho(1;2;1)]"]["status"] == "discrepancy"
    assert rep["totals"]["discrepancy"] >= 1


def test_verify_sampled_ring(run_cli):
    code, out = run_cli("verify", "--ring", "z", "--seed", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["totals"]["fail"] == 0


def test_verify_defaults_are_the_verifiers_bounds():
    # the parser copies them so that start-up need not import the verifier
    from idealcat.verifier import Bounds

    args, bounds = cli.build_parser().parse_args(["verify", "--ring", "z"]), Bounds()
    assert (args.seed, args.max_abs, args.max_n) == (
        bounds.seed, bounds.max_abs, bounds.search_ceiling)


def test_oracle(run_cli):
    code, out = run_cli("oracle", "--ring", "zmod:6", "<2>", "<3>", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["tables"] == [[["0", "0"], ["2", "0"], ["4", "0"]]]
    code, _ = run_cli("oracle", "--ring", "qpoly", "<1x>", "<1x>")
    assert code == 1


def test_json_outputs_newline_terminated(run_cli):
    for argv in (
        ["objects", "--ring", "zmod:6", "--json"],
        ["kernel", "--ring", "zmod:6", "rho(1;2;2)", "--json"],
        ["verify", "--ring", "zmod:6", "--json"],
    ):
        _, out = run_cli(*argv)
        assert out.endswith("\n") and not out.endswith("\n\n")


def test_usage_errors(run_cli):
    code, _ = run_cli("objects", "--ring", "bogus")
    assert code == 1
    code, _ = run_cli("poset", "--ring", "z")
    assert code == 1  # infinite object class
    code, _ = run_cli("kernel", "--ring", "zmod:6", "not-a-morphism")
    assert code == 1
    code, _ = run_cli("unknown-command", "--ring", "z")
    assert code == 1
    code, _ = run_cli("kernel", "--ring", "zmod:6", "rho(1;2;2)", "--unknown-flag")
    assert code == 1
    code, out = run_cli("kernel", "--ring", "zmod:6", "rho(1;1;2)", "--json")
    assert code == 1  # invalid multiplier: 1 does not land in <2>
    assert json.loads(out)["error"]["type"] == "InvalidMultiplier"


# Every subcommand with its operand letters, and two operand sets per ring: the
# first set mostly succeeds, the second reaches refusals (exit 2) and errors.
GOLDEN_COMMANDS = {"objects": "", "homs": "AB", "compose": "FG", "add": "FG", "apply": "FX",
                   "kernel": "F", "cokernel": "F", "biproduct": "AB", "factor": "F",
                   "split": "E", "poset": "", "verify": "", "oracle": "AB"}
GOLDEN_OPERANDS = {
    "zmod:6": [
        dict(A="<2>", B="<3>", F="rho(1;2;1)", G="rho(1;5;1)", E="rho(1;3;1)", X="4"),
        dict(A="<2>", B="<2>", F="rho(1;3;3)", G="rho(3;1;1)", E="rho(2;2;2)", X="5"),
    ],
    "zmod:12": [
        dict(A="<4>", B="<3>", F="rho(1;3;1)", G="rho(1;4;1)", E="rho(1;4;1)", X="7"),
        dict(A="<2>", B="<6>", F="rho(2;3;6)", G="rho(6;2;2)", E="rho(1;2;1)", X="8"),
    ],
    "z": [
        dict(A="<4>", B="<6>", F="rho(2;3;2)", G="rho(2;5;2)", E="rho(2;1;2)", X="6"),
        dict(A="<2>", B="<0>", F="rho(3;0;5)", G="rho(6;1/2;3)", E="rho(5;0;5)", X="7"),
    ],
    "qpoly": [
        dict(A="<x^2-1>", B="<x+1>", F="rho(x-1;x+1;x-1)", G="rho(x-1;1/2;x-1)",
             E="rho(x;1;x)", X="x^2-x"),
        dict(A="<x>", B="<x^2+1>", F="rho(x;1/2;1)", G="rho(x^2;(1)/(x);x)",
             E="rho(1;0;1)", X="3x"),
    ],
}
# sha256 over (exit code, stdout, stderr) of every invocation golden_argvs
# lists, recorded before the subcommands shared one command table.
CLI_GOLDEN_SHA256 = "e68ad77360f376af43cccc932c55fcbf00af1b8809981a5631d5788bc3e4db76"


def golden_argvs() -> list[list[str]]:
    argvs = {}
    for ring, operand_sets in GOLDEN_OPERANDS.items():
        for operands, (cmd, letters) in product(operand_sets, GOLDEN_COMMANDS.items()):
            for mode, fmt in product(("full", "paper"), ([], ["--json"])):
                args = ["--", *(operands[x] for x in letters)] if letters else []
                argv = [cmd, "--ring", ring, "--mode", mode, *fmt, *args]
                argvs[tuple(argv)] = argv
    return list(argvs.values())


def golden_digest() -> str:
    h = hashlib.sha256()
    for argv in golden_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


def test_every_subcommand_matches_the_golden_digest():
    assert golden_digest() == CLI_GOLDEN_SHA256


def _cli_child(*argv, timeout=30) -> subprocess.CompletedProcess:
    """The CLI in a child process with a timeout, for inputs that once hung
    or ended in a traceback."""
    return subprocess.run([sys.executable, "-m", "idealcat.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=_child_env())


def _child_env() -> dict:
    src = str(Path(idealcat.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_output_into_a_closed_pipe_exits_141_without_a_traceback():
    # `... | head -1` once ended in a BrokenPipeError traceback and exit 1.
    # The listing, about 2 MB, overfills the pipe, so the child still writes
    # after the reader has gone.
    argv = ["homs", "--ring", "zmod:100000", "<1>", "<1>"]
    with subprocess.Popen([sys.executable, "-m", "idealcat.cli", *argv], env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert b"Traceback" not in proc.stderr.read()


@pytest.mark.parametrize("max_abs", ["0", "-1"])
def test_verify_rejects_max_abs_below_one(max_abs):
    # --max-abs 0 once sampled forever.
    proc = _cli_child("verify", "--ring", "z", "--max-abs", max_abs)
    assert proc.returncode == 1
    assert "--max-abs must be at least 1" in proc.stderr


def test_apply_rejects_a_polynomial_degree_above_the_limit():
    # x^100000000 once built 10^8 coefficients.
    proc = _cli_child("apply", "--ring", "qpoly", "rho(1;x^100000000;1)", "1")
    assert proc.returncode == 1
    assert "above the limit 4096" in proc.stderr


def test_compose_refuses_to_render_an_integer_over_the_digit_limit():
    # Two 3000-digit multipliers multiply to 6000 digits, which int() would
    # refuse to read back; str() once raised a raw ValueError here.
    proc = _cli_child("compose", "--ring", "z", f"rho(1;{'7' * 3000};1)", f"rho(1;{'7' * 3000};1)")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_compose_refuses_to_render_a_degree_above_the_literal_limit():
    # x^3000 * x^3000 = x^6000, which parse_poly refuses; it was once printed.
    proc = _cli_child("compose", "--ring", "qpoly", "rho(1;x^3000;1)", "rho(1;x^3000;1)",
                      "--json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
    assert "above the literal limit 4096" in json.loads(proc.stdout)["error"]["message"]


@pytest.mark.parametrize("argv, message", [
    (("homs", "--ring", "zmod:100000000", "<1>", "<1>"), "above the listing limit 100000"),
    (("oracle", "--ring", "zmod:2000", "<1>", "<1>"), "modulus of at most 128"),
])
def test_listings_above_their_limit_are_refused(argv, message):
    # homs once ran out of memory here, and oracle took minutes
    proc = _cli_child(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr
    proc = _cli_child(*argv, "--json")
    assert json.loads(proc.stdout)["error"]["type"] == "ListingTooLarge"


@pytest.mark.parametrize("command, n", [("objects", 10**23), ("verify", 10**19)])
def test_moduli_above_the_object_limit_are_refused_at_once(command, n):
    # listing the ideals once trial-divided up to sqrt(n): hours for these
    proc = _cli_child(command, "--ring", f"zmod:{n}", timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert f"above the limit {10**12} for listing its ideals" in proc.stderr


@pytest.mark.parametrize("n", [5040, 99991])
def test_verify_of_a_ring_above_the_case_limit_is_refused_at_once(n):
    # both once ran past a 15 s timeout with no output
    proc = _cli_child("verify", "--ring", f"zmod:{n}", timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert f"above the limit {MAX_VERIFY_CASES}" in proc.stderr


def test_poset_of_a_modulus_with_1344_ideals_is_answered_at_once():
    # the cover search was cubic in the number of ideals: minutes for these
    exponents = {2: 6, 3: 3, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1}
    n = math.prod(p ** e for p, e in exponents.items())
    proc = _cli_child("poset", "--ring", f"zmod:{n}", timeout=10)
    assert (n, proc.returncode) == (735134400, 0)
    lines = proc.stdout.splitlines()
    assert sum(line.endswith('";') and "->" not in line for line in lines) == 1344
    # one cover <d> < <d/p> for each ideal <d> and prime p whose exponent in d
    # is above 0: the ideals with exponent 0 at p are 1 / (e + 1) of them
    assert sum("->" in line for line in lines) == sum(1344 * e // (e + 1)
                                                       for e in exponents.values())


def test_paper_mode_rejects_fraction_literal(run_cli):
    code, _ = run_cli("kernel", "--ring", "z", "rho(2;3/2;3)", "--mode", "paper")
    assert code == 1
    code, _ = run_cli("kernel", "--ring", "z", "rho(2;3/2;3)")
    assert code == 0


# --- literal and JSON round-trips ------------------------------------------


@pytest.mark.parametrize(
    "ring_lit,ideal_lit",
    [
        ("z", "<4,6>"),
        ("z", "<>"),
        ("z", "<-3>"),
        ("zmod:6", "<4>"),
        ("zmod:6", "<0>"),
        ("qpoly", "<1x^2-1,1x-1>"),
    ],
)
def test_ideal_round_trip(ring_lit, ideal_lit):
    ring = ring_from_literal(ring_lit)
    A = parse_ideal(ring, ideal_lit)
    assert parse_ideal(ring, A.literal) == A
    assert ideal_from_json(ideal_to_json(A)) == A


@pytest.mark.parametrize(
    "ring_lit,morphism_lit",
    [
        ("z", "rho(2;3;3)"),
        ("z", "rho(2;3/2;3)"),
        ("z", "rho(4;0;5)"),
        ("zmod:6", "rho(1;4;2)"),
        ("zmod:6", "rho(4;2;2)"),
        ("qpoly", "rho(1x-1;1x+1;1x^2-1)"),
        ("qpoly", "rho(2x-2;(1x+1)/(2);1x^2-1)"),
        # a multiplier that stays a genuine fraction after reduction
        ("qpoly", "rho(1x^2-1x;(1x-1)/(1x);1x^2-2x+1)"),
    ],
)
def test_morphism_round_trip(ring_lit, morphism_lit):
    ring = ring_from_literal(ring_lit)
    f = parse_morphism(ring, morphism_lit)
    assert parse_morphism(ring, f.literal) == f
    assert morphism_from_json(morphism_to_json(f)) == f


@pytest.mark.parametrize(
    "decode,payload",
    [
        (ideal_from_json, "{}"),
        (ideal_from_json, '{"ring":"z","gen":5}'),
        (ideal_from_json, '{"ring":6,"gen":"1"}'),
        (morphism_from_json, '{"dom":{"ring":"z","gen":"2"}}'),
        (morphism_from_json, "[1,2]"),
    ],
)
def test_malformed_json_payloads_raise_parse_error(decode, payload):
    with pytest.raises(ParseError):
        decode(json.loads(payload))


def test_a_morphism_literal_needs_three_parts():
    with pytest.raises(ParseError, match="three ;-separated parts"):
        parse_morphism(ModularRing(6), "rho(1;2)")


def test_morphism_endpoints_over_different_rings_raise_ring_mismatch():
    payload = {"dom": {"ring": "zmod:6", "gen": "1"}, "mult": "1",
               "cod": {"ring": "zmod:4", "gen": "1"}}
    with pytest.raises(RingMismatch, match="endpoints over different rings"):
        morphism_from_json(payload)


def test_parsed_ideal_is_normalized():
    assert parse_ideal(ring_from_literal("z"), "<4,6>") == ideal_new(INTEGERS, [2])
    assert parse_ideal(ring_from_literal("zmod:6"), "<4>").generator == 2


def test_morphism_json_shape():
    f = morphism_new(ideal_new(Z6, [1]), ideal_new(Z6, [2]), 4)
    assert morphism_to_json(f) == {
        "dom": {"ring": "zmod:6", "gen": "1"},
        "mult": "4",
        "cod": {"ring": "zmod:6", "gen": "2"},
    }


# --- fuzz: every command, random and valid operands ---------------------------
# The exit-code fuzz draws moduli up to 10^9 (LARGE_FUZZ_RINGS): hom-set
# listings and the oracle refuse what they cannot list quickly. Only verify,
# exhaustive over zmod:n, stops at 12. The read-back fuzz parses every listed
# morphism again, so its moduli stop at 30; both stay a few seconds long.

FUZZ_RINGS = st.sampled_from(["z", "qpoly"]) | st.integers(2, 30).map(lambda n: f"zmod:{n}")
LARGE_FUZZ_RINGS = FUZZ_RINGS | st.integers(2, 10**9).map(lambda n: f"zmod:{n}")
FUZZ_SNIPPETS = ["", " ", "<", "<>", "<0>", "<1,>", "rho(", "rho(1;;1)", "rho(0;0;0)",
                 "rho(1;1/0;1)", "rho(x;(x)/(0);x)", "1/0", "x^99999", "(x)/(x+1)", "--json"]


def _poly_text(coefficients) -> str:
    terms = [f"{c:+d}x^{d}" for d, c in enumerate(coefficients) if c]
    return "".join(reversed(terms)) or "0"


@st.composite
def valid_operands(draw, ring: str, letters: str) -> list[str]:
    """A literal for each operand letter. Generators come mostly from a pool
    of three elements, and multipliers often map dom into cod, so that the
    morphisms often exist, compose and add."""
    if ring == "qpoly":
        element = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(_poly_text)
        over = "({})/({})".format
    else:
        element = st.integers(-40, 40).map(str)
        over = "{}/{}".format
    pool = draw(st.lists(element, min_size=3, max_size=3))
    generator = st.sampled_from(pool) | element
    texts, cod = [], generator
    for letter in letters:
        if letter in "AB":
            texts.append("<" + ",".join(draw(st.lists(generator, max_size=2))) + ">")
        elif letter == "X":
            texts.append(draw(element))
        else:  # G often ends where F starts, so that compose F G is defined
            a, b = draw(generator), draw(cod)
            cod = st.just(a) | generator
            s = draw(st.sampled_from([b, over(b, a)]) if draw(st.integers(0, 3)) else
                     element | st.tuples(element, element).map(lambda t: over(*t)))
            texts.append(f"rho({a};{s};{b})")
    return texts


def _main_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(_COMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_command_exits_with_a_documented_code(name, data):
    command = _COMMANDS[name]
    if name == "verify":
        ring = f"zmod:{data.draw(st.integers(2, 12))}"
        flags = ["--seed", str(data.draw(st.integers(0, 9)))]
    else:
        ring, flags = data.draw(LARGE_FUZZ_RINGS), []
    junk = st.sampled_from(FUZZ_SNIPPETS) | st.text(max_size=10)
    operands = [data.draw(st.just(text) | junk)
                for text in data.draw(valid_operands(ring, command.operands))]
    as_json = data.draw(st.booleans())
    argv = [name, "--ring", ring, "--mode", data.draw(st.sampled_from(["full", "paper"])),
            *flags, *(["--json"] if as_json else []), *(["--", *operands] if operands else [])]
    code, out, err = _main_captured(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if as_json and out:  # argparse usage errors print only to stderr
        json.loads(out)


def _read_back(ring, mode: str, printed):
    """The value a printed literal or JSON object stands for."""
    if isinstance(printed, dict):
        return morphism_from_json(printed, mode) if "dom" in printed else ideal_from_json(printed)
    if printed.startswith("<"):
        return parse_ideal(ring, printed)
    if printed.startswith("rho("):
        return parse_morphism(ring, printed, mode)
    return ring.parse_element(printed)


def _printed(name: str, payload, human: str) -> tuple[list, list]:
    """The values a successful command printed, as JSON and as text."""
    lines = human.splitlines()
    if name == "homs":
        return payload["elements"] or [], lines[1:]
    if name == "apply":
        return [payload["value"]], lines
    if name == "objects":
        return payload, lines
    if _COMMANDS[name].codec != "morphism_to_json":
        return list(payload.values()), [line.split(" ", 1)[1] for line in lines]
    return [payload], lines


def _expected(name: str, ring, mode: str, operands: list):
    if name == "homs":
        return list(enumerate_hom(*operands, mode).elements or ())
    if name == "apply":
        return [apply(*operands)]
    if name == "objects":
        return enumerate_objects(ring)
    result = getattr(cli, _COMMANDS[name].operation)(*operands)
    if _COMMANDS[name].codec == "morphism_to_json":
        return [result]
    return list(result)  # every codec result is a NamedTuple


ROUND_TRIP_COMMANDS = sorted(name for name, c in _COMMANDS.items()
                             if c.codec or name in ("homs", "apply", "objects"))


@pytest.mark.parametrize("name", ROUND_TRIP_COMMANDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_printed_value_parses_back_to_an_equal_value(name, data):
    command = _COMMANDS[name]
    ring_literal = data.draw(FUZZ_RINGS.filter(lambda r: name != "objects" or r.startswith("zmod")))
    mode = data.draw(st.sampled_from(["full", "paper"]))
    texts = data.draw(valid_operands(ring_literal, command.operands))
    argv = [name, "--ring", ring_literal, "--mode", mode, *(["--", *texts] if texts else [])]
    code, human, _ = _main_captured(argv)
    json_code, payload, _ = _main_captured([*argv[:5], "--json", *argv[5:]])
    assert code == json_code
    if code != 0:
        return
    ring = ring_from_literal(ring_literal)
    operands = [cli._operand(letter, text, ring, mode)
                for letter, text in zip(command.operands, texts)]
    expected = _expected(name, ring, mode, operands)
    as_json, as_text = _printed(name, json.loads(payload), human)
    assert [_read_back(ring, mode, v) for v in as_json] == expected
    assert [_read_back(ring, mode, v) for v in as_text] == expected
