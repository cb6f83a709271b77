"""Regenerate bench/reference.json: test_acc_mean of each workload on each input set.

    python3 bench/make_reference.py [--workload NAME ...]

The benchmark checks every run against these values, so regenerate them only
when the engine's numbers change on purpose, and say so where the change is
described. The tolerance already in the file is kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import INPUT_SETS, WORKLOADS, make_ini


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    ref = run.load_reference()
    run.WORK.mkdir(exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        w = WORKLOADS[name]
        accs = {}
        for k in range(INPUT_SETS):
            work = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.WORK))
            try:
                ini = work / "experiment.ini"
                ini.write_text(make_ini(w, k))
                it = run.run_iteration(w, k, ini, work, 0, False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if it["problems"]:
                print(f"{name} input set {k}: {it['problems']}", file=sys.stderr)
                return 1
            accs[str(k)] = it["test_acc_mean"]
            print(f"{name} {k}: {accs[str(k)]}", file=sys.stderr)
        ref["test_acc_mean"][name] = accs
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
