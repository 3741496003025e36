import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idealcat
from idealcat.errors import ParseError
from idealcat.formats import (
    ideal_from_json,
    ideal_to_json,
    morphism_from_json,
    morphism_to_json,
    parse_ideal,
    parse_morphism,
)
from idealcat.ideals import ideal_new, morphism_new
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


@pytest.mark.parametrize("max_abs", ["0", "-1"])
def test_verify_rejects_max_abs_below_one(max_abs):
    # In a child process with a timeout: --max-abs 0 once sampled forever.
    src = str(Path(idealcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "idealcat.cli", "verify", "--ring", "z", "--max-abs", max_abs],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 1
    assert "--max-abs must be at least 1" in proc.stderr


def test_apply_rejects_a_polynomial_degree_above_the_limit():
    # In a child process with a timeout: x^100000000 once built 10^8 coefficients.
    src = str(Path(idealcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "idealcat.cli", "apply", "--ring", "qpoly",
         "rho(1;x^100000000;1)", "1"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 1
    assert "above the limit 4096" in proc.stderr


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
