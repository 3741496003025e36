"""Start-up: importing the package or running a cheap CLI command loads
neither the verifier nor dataclasses (and with it inspect) nor fractions
(and with it decimal); the verifier's names are still re-exported from the
package, loaded on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import idealcat

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("idealcat.verifier", "dataclasses", "inspect", "fractions")
VERIFIER_NAMES = ("Bounds", "CheckResult", "LawTable", "Report", "STANDARD_LAWS",
                  "audit_existence", "brute_force_hom_set", "check_axioms", "law_mutations",
                  "morphism_table", "search_biproduct", "search_cokernel", "verify_ring")


def _child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's sources first on its path."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("module", ["idealcat", "idealcat.cli"])
def test_import_loads_no_heavy_module(module):
    code = f"import sys, {module}; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    proc = _child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_cheap_command_imports_no_heavy_module():
    proc = _child("-X", "importtime", "-m", "idealcat.cli", "objects", "--ring", "zmod:6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["<0>", "<1>", "<2>", "<3>"]
    imported = {line.split("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2}
    assert "idealcat.cli" in imported or "idealcat" in imported
    assert imported.isdisjoint(HEAVY)


def test_qpoly_values_from_ints_need_no_fractions_until_one_is_read():
    code = ("import sys; from idealcat.poly import Poly; "
            "from idealcat.rings import RATIONAL_POLYNOMIALS as R; "
            "p = R.mul(R.coerce(3), Poly((1, -2, 5))); print('fractions' in sys.modules); "
            "print(p.leading, 'fractions' in sys.modules)")
    proc = _child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "15", "True"]


@pytest.mark.parametrize("argv", [["verify", "--ring", "zmod:4"],
                                  ["oracle", "--ring", "zmod:6", "<2>", "<3>"]])
def test_the_verifier_commands_still_run(argv):
    proc = _child("-m", "idealcat.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_every_verifier_name_is_re_exported():
    from idealcat import verifier

    for name in VERIFIER_NAMES:
        assert name in dir(idealcat)
        assert getattr(idealcat, name) is getattr(verifier, name)
    assert idealcat.verify_ring is idealcat.verifier.verify_ring
    assert set(VERIFIER_NAMES) <= {n for n in dir(verifier) if not n.startswith("_")}


def test_from_import_of_verifier_names():
    code = ("import idealcat; module = idealcat.verifier; "
            "from idealcat import " + ", ".join(VERIFIER_NAMES) + "; "
            "print(idealcat.verify_ring is module.verify_ring is verify_ring, "
            "'verifier' in dir(idealcat))")
    proc = _child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
    star = _child("-c", "from idealcat import *; print(verify_ring is verifier.verify_ring)")
    assert star.returncode == 0, star.stderr
    assert star.stdout.strip() == "True"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        idealcat.no_such_name
    assert not hasattr(idealcat, "verify_rings")
    with pytest.raises(ImportError):
        from idealcat import no_such_name  # noqa: F401
