"""Repeat mode: run workloads several times, one seed each, and report the
median and quartiles of every metric, with the spread that the bounds in
BENCHMARK.json are set against.

    python3 perfbench/repeat.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds 25] [--out FILE]

Runs are sequential child processes of ``perfbench/run.py --trace 0``, so
only the end-to-end metrics are summarized. The spread is
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(n=4)``.
With ``--runs 1`` this is the one command that runs all four workloads and
prints every end-to-end metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify-zmod", "verify-sampled", "library-ops", "cli-startup")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode} without a result: "
                           f"{proc.stderr[-2000:]}") from None
    if not result["correct"]:
        print(f"{workload} seed {seed}: output checks failed (exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    bounds = {}
    if bench_file.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench_file.read_text())["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        results = [one_run(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"correct": all(r["correct"] for r in results),
                 "failed_ratio": failed / attempted, "metrics": {}}
        print(f"{workload}: {args.runs} runs, correct={entry['correct']}, "
              f"failed_ratio={failed}/{attempted}")
        for name, metric in results[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = metric["unit"]
            entry["metrics"][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:g}" + (
                "  SPREAD >= BOUND/3" if s["spread"] >= bound / 3 else "")
            print(f"  {name:<34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} {metric['unit']:<6} spread {s['spread']:.3f}{flag}")
        report[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(e["correct"] for e in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
