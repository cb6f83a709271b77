"""The engine names and signatures that bench/tracing.py patches.

The bench traces a command by replacing engine functions where they are
looked up, so a refactor that renames one of them, changes the signature of
a job wrapper or stops forking pool workers breaks `bench/run.py --trace 1`.
These tests fail first. bench/tracing.py is loaded from its file, as the
bench loads it, and not changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import qreg.experiments

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
