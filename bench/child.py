"""One benchmark iteration, in a fresh interpreter.

    python3 bench/child.py RESULT.json --ini EXP.ini --out DIR --command CMD
                           --seed N --noise S --workers W --jobs J [--trace]

Set-up is the interpreter start, `import qreg`, `load_config` and
`build_datasets` for the first job; its end is stamped on CLOCK_MONOTONIC so
the parent, which stamped the spawn on the same clock, can take the
difference. The command itself is `qreg.cli.main`, timed on its own. With
--trace the tracer is installed after set-up, so set-up stays untraced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("result")
    p.add_argument("--ini", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--command", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import qreg  # from SRC, which the parent puts on PYTHONPATH
    from qreg.config import load_config
    from qreg.experiments import build_datasets

    if not Path(qreg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported qreg from {qreg.__file__}, not from {SRC}")
    cfg = load_config(args.ini)
    train_ds, _, _ = build_datasets(cfg, args.seed, args.noise)
    setup_end = time.monotonic()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import qreg.cli

    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = qreg.cli.main([args.command, "--config", args.ini, "--out", args.out])
    wall = time.perf_counter() - start

    # the command prints one line per job: "  <label>: epochs=N ..." or "  <label>: FAILED (...)"
    log = stdout.getvalue()
    epochs = [int(n) for n in re.findall(r"^  .*: epochs=(\d+) ", log, re.M)]
    own, workers = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "exit_code": code,
        "setup_end": setup_end,
        "wall_s": wall,
        "train_samples": train_ds.n * sum(epochs),
        "jobs_ok": len(epochs),
        "peak_rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024.0,
        "cpu_s": own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime,
    }
    if tracer is not None:
        from tracing import summarize

        result["layers"], result["trace_problems"] = summarize(tracer, args.workers, args.jobs)
        with open(Path(args.result).with_name("spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
