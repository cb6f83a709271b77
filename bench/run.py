"""qreg benchmark: sweep workloads timed end to end, with an opt-in traced run.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from `src/`
there, and the command fails without printing a result when `src/qreg` is
absent. Each iteration runs one workload (bench/workloads.py) through
`qreg.cli.main` in a fresh interpreter, with BLAS pinned to one thread per
process. Iterations repeat back to back while the next one still fits in S
seconds. With --trace 1 the first half of the time runs untraced iterations
and the second half traced ones (bench/tracing.py).

Every iteration is checked: exit code 0, the expected output files with the
expected header and one row per job, finite values, `test_acc_mean` equal to
the stored reference for the seed (bench/reference.json) within its
tolerance, and output bytes identical to the run's first iteration, traced
or not. Failed or missing jobs count in `failed`.

The last line of standard output is one JSON object: correct, attempted and
failed (jobs, over all iterations) and the metrics. --trace 0 reports the
end-to-end metrics as medians over iterations, --trace 1 the per-layer
metrics as medians over the traced iterations. The line before it records
the environment and every iteration. Work files go to .bench_work/ and are
removed, except the spans of the last traced iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, input_set, make_ini

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",                   # interpreter start to first job's datasets built
    "wall_s": "s",                    # the qreg command
    "train_samples_per_s": "1/s",     # training rows x epochs run, all jobs, / wall_s
    "peak_rss_mb": "MB",              # command process plus its largest pool worker
    "test_acc_mean": "ratio",         # mean final test accuracy (f1_avg for multitask)
    "ok_job_frac": "ratio",           # jobs that finished, of those attempted
}

PER_LAYER = {
    "tensor.conv2d.ms": "ms",
    "tensor.conv2d.calls": "count",
    "layers.BatchNorm.forward.ms": "ms",
    "quantization.fake_quantize.ms": "ms",
    "quantization.fake_quantize.calls": "count",
    "quantization.weight_scales.ms": "ms",
    "quantization.QuantizedLayer.forward.ms": "ms",
    "quantization.eval_weight_quant_per_layer": "ratio",
    "training.Adam.step.ms": "ms",
    "training.Adam.step.calls": "count",
    "training.evaluate.ms": "ms",
    "training.evaluate.rows": "count",
    "tensor.backward.ms": "ms",
    "tensor.matmul.ms": "ms",
    "tensor.nodes_per_step": "count",
    "layers.Dense.forward.ms": "ms",
    "layers.forward.ms": "ms",
    "layers.Model.state_dict.calls": "count",
    "losses.ms": "ms",
    "regularization.ms": "ms",
    "pruning.prune_model.ms": "ms",
    "experiments.run_job.ms_p50": "ms",
    "experiments.run_job.ms_max": "ms",
    "experiments.pool_busy_frac": "ratio",
    "experiments.build_datasets.ms": "ms",
    "config.load_config.ms": "ms",
    "data.ms": "ms",
    "metrics.ms": "ms",
    "records.write.ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in (
        "tensor", "layers", "quantization", "training", "losses", "regularization",
        "pruning", "data", "metrics", "records", "config", "experiments", "cli")},
    "bench.trace_overhead_s": "s",    # traced wall_s minus the untraced median
}


def git_commit() -> str | None:
    """HEAD of the checkout, read without git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: Workload, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "qreg_threads": workload.threads,
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "input_set": input_set(seed),
    }


def load_reference() -> dict:
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)


def check_outputs(workload: Workload, out: Path) -> tuple[dict[str, bytes], float | None, list[str]]:
    """Output bytes, test_acc_mean and the problems found in one output directory."""
    problems = []
    files = {}
    expected = {name for name, _ in workload.outputs}
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if found != expected:
        problems.append(f"output files {sorted(found)}, expected {sorted(expected)}")
    acc = None
    for name, header in workload.outputs:
        if name not in found:
            continue
        files[name] = (out / name).read_bytes()
        lines = files[name].decode().splitlines()
        if not lines or lines[0] != header:
            problems.append(f"{name}: header {lines[:1]}, expected [{header!r}]")
            continue
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != workload.jobs:
            problems.append(f"{name}: {len(rows)} rows, expected {workload.jobs}")
        cols = header.split(",")
        try:
            values = [[float(v) for v in row[1:]] for row in rows]  # column 0 is the mode
        except ValueError as e:
            problems.append(f"{name}: {e}")
            continue
        if any(len(row) != len(cols) - 1 for row in values):
            problems.append(f"{name}: ragged rows")
        elif any(v != v or v in (float("inf"), float("-inf")) for row in values for v in row):
            problems.append(f"{name}: non-finite value")
        elif name == workload.acc[0] and values:
            col = cols.index(workload.acc[1]) - 1
            acc = statistics.fmean(row[col] for row in values)
    if acc is None and not problems:
        problems.append(f"no {workload.acc[1]} values in {workload.acc[0]}")
    return files, acc, problems


def run_iteration(workload: Workload, seed: int, ini: Path, work: Path, index: int, trace: bool) -> dict:
    """One fresh-interpreter run of the workload; see child.py."""
    it_dir = work / f"it{index}"
    it_dir.mkdir()
    result_path = it_dir / "result.json"
    out = it_dir / "out"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path),
           "--ini", str(ini), "--out", str(out), "--command", workload.command,
           "--seed", str(input_set(seed)), "--noise", str(workload.first_noise),
           "--workers", str(workload.threads), "--jobs", str(workload.jobs)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QREG_THREADS=str(workload.threads),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        _, err = proc.communicate()
    elapsed = time.monotonic() - spawn
    it = {"traced": trace, "elapsed_s": elapsed, "problems": []}
    if proc.returncode != 0 or not result_path.is_file():
        it["problems"].append(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
        it["jobs_ok"] = 0
        return it
    with open(result_path) as fh:
        res = json.load(fh)
    it.update(res)
    it["setup_s"] = it.pop("setup_end") - spawn
    if res["exit_code"] != 0:
        it["problems"].append(f"command exited {res['exit_code']}")
    it["files"], it["test_acc_mean"], problems = check_outputs(workload, out)
    it["problems"] += problems + res.get("trace_problems", [])
    if trace:
        it["spans"] = it_dir / "spans.json"
    return it


def run(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Run the workload for `seconds`; returns (result line, details line).

    smoke=True shrinks the data and epochs and skips the reference check, so
    the self-test can exercise the whole path in seconds.
    """
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        ini = work / "experiment.ini"
        text = make_ini(workload, seed)
        ini.write_text(shrink(text) if smoke else text)
        start = time.monotonic()
        iterations: list[dict] = []
        phases = [(False, seconds / 2, 2), (True, seconds, 1)] if trace else [(False, seconds, 2)]
        for traced, until, minimum in phases:
            durations: list[float] = []
            while len(durations) < minimum or time.monotonic() - start + statistics.median(durations) <= until:
                it = run_iteration(workload, seed, ini, work, len(iterations), traced)
                iterations.append(it)
                durations.append(it["elapsed_s"])
                print(f"[bench] {workload.name} seed={seed} it{len(iterations) - 1}"
                      f"{' traced' if traced else ''}: {it['elapsed_s']:.2f} s"
                      f"{' PROBLEMS ' + '; '.join(it['problems']) if it['problems'] else ''}",
                      file=sys.stderr)
        return summarize_run(workload, seed, iterations, trace, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def shrink(text: str) -> str:
    sizes = {"epochs": "1", "train_size": "200", "test_size": "100"}
    lines = []
    for line in text.splitlines():
        key = line.split(" = ")[0]
        lines.append(f"{key} = {sizes[key]}" if key in sizes else line)
    return "\n".join(lines) + "\n"


def summarize_run(workload: Workload, seed: int, iterations: list[dict], trace: bool,
                  smoke: bool) -> tuple[dict, dict]:
    problems = [p for it in iterations for p in it["problems"]]
    measured = [it for it in iterations if "wall_s" in it]
    for i, it in enumerate(iterations):
        if "wall_s" in it and it["files"] != measured[0]["files"]:
            problems.append(f"iteration {i} output bytes differ from those of the first complete one")
    accs = {it["test_acc_mean"] for it in measured if it.get("test_acc_mean") is not None}
    if not smoke and accs:
        ref = load_reference()
        expected = ref["test_acc_mean"][workload.name].get(str(input_set(seed)))
        if expected is None:
            problems.append(f"no reference test_acc_mean for input set {input_set(seed)}")
        elif any(abs(a - expected) > ref["tolerance"] for a in accs):
            problems.append(f"test_acc_mean {sorted(accs)} differs from reference {expected}"
                            f" by more than {ref['tolerance']}")

    attempted = workload.jobs * len(iterations)
    failed = attempted - sum(it.get("jobs_ok", 0) for it in iterations)
    untraced = [it for it in measured if not it["traced"]]
    traced = [it for it in measured if it["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError("no iteration completed: " + "; ".join(problems))

    def median(key, its=untraced):
        return statistics.median(it[key] for it in its)

    if trace:
        values = {name: statistics.median(it["layers"][name] for it in traced)
                  for name in PER_LAYER if name != "bench.trace_overhead_s"}
        values["bench.trace_overhead_s"] = median("wall_s", traced) - median("wall_s")
        units = PER_LAYER
        shutil.copyfile(traced[-1]["spans"], WORK / f"spans_{workload.name}.json")
    else:
        values = {
            "setup_s": median("setup_s"),
            "wall_s": median("wall_s"),
            "train_samples_per_s": statistics.median(it["train_samples"] / it["wall_s"] for it in untraced),
            "peak_rss_mb": median("peak_rss_mb"),
            "test_acc_mean": statistics.median(it["test_acc_mean"] for it in untraced
                                               if it.get("test_acc_mean") is not None),
            "ok_job_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "env": environment(workload, seed),
        "problems": problems,
        "iterations": [{k: (str(v) if isinstance(v, Path) else v) for k, v in it.items()
                        if k not in ("files", "layers")} for it in iterations],
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them in turn (each prints its own two lines)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qreg" / "__init__.py").is_file():
        print(f"error: no qreg sources under {ROOT / 'src'}; run from a qreg checkout", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result, details = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(json.dumps(details))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
