"""The engine names and signatures that bench/tracing.py patches.

The bench traces a command by replacing engine functions where they are
looked up, so a refactor that renames one of them, changes the signature of
a job wrapper or stops forking pool workers breaks `bench/run.py --trace 1`.
These tests fail first. bench/tracing.py is loaded from its file, as the
bench loads it, and not changed. The last test runs bench/child.py itself,
serial and pooled, and checks that the trace holds one run_job span per job.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qreg.experiments

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

# 3 modes x 2 noise levels x 2 seeds: 12 jobs, 4 of them early_stopping jobs replayed from their `none` twin
TRACED_SWEEP = """
[experiment]
seeds = 0,1
modes = none,early_stopping,quantization
noise_levels = 0.0,0.3

[data]
num_classes = 3
dim = 8
train_size = 240
test_size = 60

[training]
epochs = 2
batch_size = 32
"""


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    for module, attr, name in _tracing().SPANS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_the_job_wrappers_keep_the_signatures_the_tracer_wraps():
    assert list(inspect.signature(qreg.experiments.run_job).parameters) == ["job"]
    assert list(inspect.signature(qreg.experiments.run_jobs).parameters) == ["jobs", "quiet"]


def test_pool_workers_are_forked():
    # the tracer's spans come back from workers that inherit its patched modules
    pool = qreg.experiments._pool(2)
    try:
        assert pool._mp_context.get_start_method() == "fork"
    finally:
        pool.shutdown()


@pytest.mark.parametrize("workers", [1, 2])
def test_the_tracer_sees_one_run_job_span_per_job(tmp_path, workers):
    # bench/child.py runs one traced command as the bench does; replays must go through run_job too
    ini, result = tmp_path / "exp.ini", tmp_path / "result.json"
    ini.write_text(TRACED_SWEEP)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QREG_THREADS=str(workers))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), str(result), "--ini", str(ini),
                           "--out", str(tmp_path / "out"), "--command", "noise-sweep", "--seed", "0",
                           "--noise", "0.0", "--workers", str(workers), "--jobs", "12", "--trace"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text())
    assert traced["exit_code"] == 0
    assert traced["jobs_ok"] == 12
    assert traced["trace_problems"] == []
