"""The cli-startup workload: a seeded stream of cheap requests, each a fresh
``python -m idealcat.cli`` child of this interpreter, one at a time, with
``PYTHONPATH`` set to the checkout's ``src`` and a fixed ``PYTHONHASHSEED``.

Requests are drawn from the library-ops generator, restricted to commands
the CLI has and to the cheap ones, so the answers are checked by the same
independent arithmetic. Each pass spawns PASS_REQUESTS children.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import threading
from collections import namedtuple
from pathlib import Path

import library_ops

ROOT = Path(__file__).resolve().parent.parent
PASS_REQUESTS = 120  # about 100 of them are CLI commands
CLI_OPS = {"homs", "compose", "add", "apply", "kernel", "cokernel", "biproduct",
           "factor", "split", "objects"}
HUMAN_OPS = {"compose", "add", "objects"}  # the others are always asked for --json
CHILD_TIMEOUT_S = 60

# peak_kb holds the largest peak RSS of any CLI child so far, in KiB
State = namedtuple("State", "seed requests expected argvs peak_kb")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def argv_for(req) -> list[str]:
    argv = [req.op, "--ring", req.ring, "--mode", req.mode]
    if req.as_json or req.op not in HUMAN_OPS:
        argv.append("--json")
    return argv + (["--", *req.args] if req.args else [])  # literals may start with "-"


def prepare(seed: int) -> State:
    rng = random.Random(f"cli-startup:{seed}")
    requests, expected = [], []
    for op, u in library_ops._plan(rng, PASS_REQUESTS):
        if op not in CLI_OPS:
            continue
        req, exp = library_ops._draw(rng, op, u)
        if exp[0] != 0:  # error types are printed with --json only
            req = req._replace(as_json=True)
        requests.append(req)
        expected.append(exp)
    return State(seed, requests, expected, [argv_for(r) for r in requests], [0])


def _spawn(state, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI child and record its peak RSS, which only wait4 reports
    per child. Answers are small, so reading stdout before stderr cannot
    fill the stderr pipe."""
    proc = subprocess.Popen([sys.executable, "-m", "idealcat.cli", *argv], env=child_env(),
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    state.peak_kb[0] = max(state.peak_kb[0], usage.ru_maxrss)
    return proc.returncode, out, err


def warm_up(state) -> None:
    """One untimed spawn, so that the children find compiled .pyc files."""
    _spawn(state, state.argvs[0])


def peak_rss_mb(state) -> float:
    return state.peak_kb[0] / 1024.0


def _render(code: int, out: str, err: str) -> str:
    return f"{code}\n{out}\n--\n{err}"


def execute(state, req, laws=None) -> str:
    return _render(*_spawn(state, argv_for(req)))


class InProcess:
    """The same requests through ``idealcat.cli.main`` in this process; the
    traced run uses it, because spans cannot cross into the children."""

    @staticmethod
    def execute(state, req, laws=None) -> str:
        from idealcat import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv_for(req))
        return _render(code, out.getvalue(), err.getvalue())


IN_PROCESS = InProcess


def _as_library_output(req, text: str) -> str:
    """Rewrite a CLI answer into the library-ops form ``<class> <body>``."""
    import json

    code, _, rest = text.partition("\n")
    out = rest.rsplit("\n--\n", 1)[0].rstrip("\n")
    if code != "0":
        return f"{code} {json.loads(out)['error']['type']}"
    if req.op == "apply":
        return "0 " + json.loads(out)["value"]
    return "0 " + out


def check(state, outputs) -> list[tuple[int, str]]:
    converted = []
    for req, out in zip(state.requests, outputs):
        try:
            converted.append(_as_library_output(req, out))
        except (ValueError, KeyError) as exc:
            converted.append(f"unparsable {type(exc).__name__}")
    lib_state = library_ops.State(state.seed, state.requests, state.expected, ())
    return library_ops.check(lib_state, converted)
