"""Record the reference outputs of the default seed into perfbench/reference/.

    python3 perfbench/record_reference.py [workload ...]

Run it only on a commit whose answers are trusted: later runs compare their
outputs with these files. Verify workloads store each report's verdict
(check names, statuses, witnesses and totals); request streams store a
short SHA-256 digest of each answer. Nothing is written for a workload
whose answers fail their independent checks.
"""

from __future__ import annotations

import json
import sys

import run


def main(names: list[str]) -> int:
    run._import_program()
    import workloads as W

    status = 0
    for name in names or list(W.WORKLOADS):
        wl = W.WORKLOADS[name]
        state = wl.prepare(W.DEFAULT_SEED)
        requests = state.requests + wl.probes(W.DEFAULT_SEED)
        outs = [wl.execute(state, req) for req in requests]
        if isinstance(wl, W.VerifyWorkload):
            data = {W.report_key(r): W.project_report(json.loads(o))
                    for r, o in zip(requests, outs)}
            problems = [f"{k}: fail entries" for k, v in data.items() if v["totals"]["fail"]]
        else:
            data = [W.digest(o) for o in outs]
            problems = wl.module.check(state, outs)
        if problems:
            print(f"{name}: not recorded, {len(problems)} problems: {problems[:3]}",
                  file=sys.stderr)
            status = 1
            continue
        path = W.REFERENCE_DIR / f"{name}-seed{W.DEFAULT_SEED}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{name}: recorded {len(outs)} outputs in {path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
