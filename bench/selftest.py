"""Self-test of the benchmark itself; takes seconds, not minutes.

    python3 bench/selftest.py

Checks that every workload's INI is a pure function of the seed, that
BENCHMARK.json lists exactly these workloads, and that a shrunken run of
each workload passes its output checks and prints every metric BENCHMARK.json
names, with its unit: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1. Exits 1 and lists the failures when any check fails.
"""

from __future__ import annotations

import json
import math
import sys

import run
from workloads import INPUT_SETS, WORKLOADS, make_ini


def main() -> int:
    failures = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {[w['name'] for w in spec['workloads']]}"
                        f" differ from {list(WORKLOADS)}")

    for w in WORKLOADS.values():
        ini = make_ini(w, 5).encode()
        if make_ini(w, 5).encode() != ini:
            failures.append(f"{w.name}: seed 5 gave two different INIs")
        if make_ini(w, 5 + INPUT_SETS).encode() != ini:
            failures.append(f"{w.name}: seeds 5 and {5 + INPUT_SETS} share an input set but not an INI")
        if make_ini(w, 6).encode() == ini:
            failures.append(f"{w.name}: seeds 5 and 6 gave the same INI")

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for w in WORKLOADS.values():
            result, details = run.run(w, 5, 0, trace, smoke=True)
            label = f"{w.name} --trace {int(trace)}"
            if not result["correct"]:
                failures.append(f"{label}: not correct: {details['problems']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: printed {sorted(got.items())}, BENCHMARK.json names {sorted(expected.items())}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    failures.append(f"{label}: {name} = {m['value']!r} is not a finite number")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
