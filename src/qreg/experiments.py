"""Experiment orchestration: dataset assembly, job running, sweep commands.

A job is one training run pinned by its resolved config, mode, noise level
and seed; a swept hyperparameter setting is a config of its own, built with
dataclasses.replace. Sweeps expand a config into a job list, run it
serially or across processes (QREG_THREADS), and reduce the records into
small summary CSVs. Job results are sorted by their coordinates before any
file is written, so the byte content of every output is independent of
execution order and worker count.

The four commands share one skeleton, _run_command. Each command states
only its config check, its job list, and a write that turns the sorted
results into its files. _run_command does the rest, in one place: it settles
QREG_THREADS, makes the output directory, runs the jobs, prints how many
runs failed, and returns the exit code (3 if any run failed, else 0). A
summary row compares a cell of seeds with its reference cell (the `none`
baseline, or a stability mode's configured setting; see _paired), and it is
written only when both cells kept at least one run.

Dataset identity is part of the experiment, not the job: features and the
train/val/test partition depend only on [data] settings. Label noise is
injected after the split, into the training partition only, seeded by the
run seed so that every mode at a given (s, seed) sees the identical
corruption. Validation and test labels stay clean; metrics measure recovery
of the true signal, and the early-stopping signal is the clean validation
set by construction.
"""

from __future__ import annotations

import ctypes
import functools
import math
import multiprocessing.connection
import os
import signal
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import MAGIC_MODEL, write_container
from .config import STABILITY_GRIDS, ExperimentConfig
from .data import Dataset, NoiseSpec, inject_noise, split_indices, synth_blobs, synth_multitask
from .data import split, split_count  # noqa: F401 (not called here; bench/tracing.py times them by these names)
from .errors import ConfigError, TrainingError
from .layers import MODEL_PRESETS, Model
from .metrics import aggregate_runs
from .records import RunRecord, fmt, write_rows as _write_rows
from .training import MODES, TrainSettings, replay_early_stopping, train

# the multitask protocol early-stops every mode, so the standalone mode is moot
MULTITASK_MODES = tuple(m for m in MODES if m != "early_stopping")

# Fork rank of a pooled job's mode, longest expected job first (the LPT
# rule), so no long job is still running alone when the others are done.
# Measured serial seconds per job rank the modes alike on every preset; an
# early_stopping job trained alone costs at most its `none` twin.
SUBMIT_RANK = {"quantization": 0, "dropout": 1, "weight_decay": 2, "none": 3, "early_stopping": 3,
               "label_smoothing": 4, "pruning": 5}

# the signals that interrupt a sweep (see cli.main); a job process dies of them
INTERRUPTS = {signal.SIGINT, signal.SIGTERM}


def image_shape(dim: int) -> tuple[int, int, int]:
    """Single-channel (1, H, W) view of a flat feature vector.

    H is the largest divisor of dim not exceeding sqrt(dim), so the grid is
    as close to square as the factorization allows (prime dim gives 1 x dim).
    """
    h = max(d for d in range(1, math.isqrt(dim) + 1) if dim % d == 0)
    return (1, h, dim // h)


def build_datasets(cfg: ExperimentConfig, seed: int, noise: float) -> tuple[Dataset, Dataset, Dataset]:
    """(train, val, test) for one job; only train labels are ever corrupted.

    The test rows are drawn from the generated set, and the validation rows
    from the rest, as split_count and then split would draw them. Each split
    is gathered from the generated set once (from its image view, for
    cnn-small), and that set is let go before the noise is injected, so the
    build holds at most the generated set and the three splits. Every array
    is read-only: training only reads its datasets.
    """
    gen_seed, test_seed, val_seed = (np.random.SeedSequence(cfg.data_seed, spawn_key=(k,)) for k in range(3))
    if cfg.data_kind == "blobs":
        per_class = (cfg.train_size + cfg.test_size) // cfg.num_classes
        full = synth_blobs(cfg.num_classes, per_class, cfg.dim, cfg.separation, gen_seed)
    else:
        full = synth_multitask(cfg.num_tasks, cfg.train_size + cfg.test_size, cfg.dim, gen_seed)
    features = full.features
    if cfg.preset == "cnn-small":
        features = features.reshape((full.n,) + image_shape(cfg.dim))
    rest, test_rows = split_indices(full.n, cfg.test_size, test_seed)
    inner, held = split_indices(rest.size, cfg.val_size, val_seed)
    train_ds, val_ds, test_ds = (replace(full, features=features[rows], labels=full.labels[rows])
                                 for rows in (rest[inner], rest[held], test_rows))
    del full, features
    if noise > 0.0:
        train_ds, _ = inject_noise(train_ds, NoiseSpec(fraction=noise, seed=seed),
                                   cfg.noise_exclude_original)
    for ds in (train_ds, val_ds, test_ds):
        ds.features.flags.writeable = False
        ds.labels.flags.writeable = False
    return train_ds, val_ds, test_ds


def build_model(cfg: ExperimentConfig, seed: int, dropout_p: float) -> Model:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    inputs = image_shape(cfg.dim) if cfg.preset == "cnn-small" else cfg.dim
    outputs = cfg.num_tasks if cfg.data_kind == "multitask" else cfg.num_classes
    return MODEL_PRESETS[cfg.preset](inputs, outputs, rng, dropout_p)


@dataclass(frozen=True)
class Job:
    """One training run of a resolved config; sort key and unit of work of a job process.

    cfg alone says what is trained; extra is only the display label of a
    swept setting (the `hyper` column and the progress line). keep_state
    asks for the trained model's final parameters in the result. Only
    cmd_train, which writes them, sets it, so a sweep holds no job's arrays
    once the job is done; it enters neither key nor the fingerprint.
    final_row_only says that the job's reader needs only the record's final
    row, so train measures train_acc and the test set for that row alone
    (TrainSettings.final_row_only). The three sweep commands set it, and
    _finished clears it on a `none` job that an early_stopping job is
    replayed from; cmd_train, which writes every row, leaves it off. It
    enters neither key, job equality nor the fingerprint. twin, when set,
    is the finished `none` result that an early_stopping job is replayed
    from instead of being trained (see _finished).
    """

    cfg: ExperimentConfig
    mode: str
    noise: float
    seed: int
    extra: str = ""
    always_early_stop: bool = False
    keep_state: bool = False
    final_row_only: bool = field(default=False, compare=False)
    twin: JobResult | None = field(default=None, compare=False, repr=False)

    @property
    def key(self) -> tuple:
        return (self.mode, self.extra, self.noise, self.seed)


@dataclass
class JobResult:
    """One job's outcome: its record, and the error that failed it, if any.

    state holds the model's final parameters when the job asked for them
    (Job.keep_state), was trained rather than replayed, and did not fail;
    else it is None.
    """

    job: Job
    record: RunRecord
    state: dict | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_job(job: Job) -> JobResult:
    """Train (or replay) one job; no exception escapes, so one bad job cannot end a sweep.

    A TrainingError fails the job with the epochs that completed; any other
    exception fails it with no epochs and an error that names its type. A
    trained job builds its own datasets, serial or pooled (see _forked); a
    replayed one builds none. The model's final parameters are copied into
    the result only when the job asks for them (Job.keep_state). The record
    holds every row measured in full unless the job asks for its final row
    alone (Job.final_row_only): that row is then measured on the model train
    returns, a stopping run's restored best epoch included.
    """
    cfg = job.cfg
    try:
        settings = cfg.train_settings(job.mode, job.seed, job.noise, always_early_stop=job.always_early_stop)
        settings = replace(settings, final_row_only=job.final_row_only)
        if job.twin is not None:
            return _replay(job, settings)
        dropout_p = settings.reg.dropout_p if job.mode == "dropout" else 0.0
        train_ds, val_ds, test_ds = build_datasets(cfg, job.seed, job.noise)
        model = build_model(cfg, job.seed, dropout_p)
        # train fails the job on any non-finite loss, gradient or metric, so numpy's warnings would repeat it
        with np.errstate(all="ignore"):
            result = train(model, train_ds, val_ds, test_ds, settings)
    except Exception as e:
        return _failure(job, e)
    return JobResult(job=job, record=result.record, state=result.model.state_dict() if job.keep_state else None)


def _failure(job: Job, e: Exception) -> JobResult:
    """The result of a job that raised `e` in run_job, or whose process died (`e` says how)."""
    cfg = job.cfg
    record = e.record if isinstance(e, TrainingError) else None
    if record is None:
        record = RunRecord(fingerprint=cfg.fingerprint(job.mode, job.noise, job.always_early_stop),
                           seed=job.seed, num_tasks=cfg.num_tasks if cfg.data_kind == "multitask" else 0)
    error = str(e) if isinstance(e, TrainingError) else f"{type(e).__name__}: {e}"
    return JobResult(job=job, record=record, state=None, error=error)


def _replay(job: Job, settings: TrainSettings) -> JobResult:
    """The early_stopping result, replayed from the rows of the finished `none` twin."""
    twin = job.twin
    kept, best_epoch, stopped = replay_early_stopping(twin.record.rows, settings.reg)
    record = RunRecord(fingerprint=settings.fingerprint, seed=job.seed,
                       num_tasks=twin.record.num_tasks, rows=twin.record.rows[:kept])
    job = replace(job, twin=None)
    if twin.failed and not stopped:
        return JobResult(job=job, record=record, state=None, error=twin.error)
    record.best_epoch = best_epoch
    return JobResult(job=job, record=record, state=None)


def worker_count() -> int:
    """Worker processes from QREG_THREADS (default 1); ConfigError unless an integer >= 1."""
    raw = os.environ.get("QREG_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"QREG_THREADS must be an integer >= 1, got '{raw}'")
    return workers


@functools.lru_cache(maxsize=1)
def _openblas() -> ctypes.CDLL | None:
    """The scipy-openblas library numpy loaded, found in /proc/self/maps; None without one."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "libscipy_openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def _blas_threads(n: int) -> int | None:
    """Run scipy-openblas on `n` threads in this process; the count before, or
    None (and nothing set) when numpy's BLAS is not scipy-openblas."""
    lib = _openblas()
    if lib is None:
        return None
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(n)
    return before


@functools.lru_cache(maxsize=1)
def _keep_freed_memory() -> bool:
    """Keep the memory this process frees in its heap, for the rest of its life;
    False (and nothing set) where libc has no mallopt, as off glibc.

    glibc's defaults serve large blocks with mmap and hand freed heap tops
    back to the kernel, so each epoch of a job faults the same pages in
    again. Blocks under 32 MiB (M_MMAP_THRESHOLD) come from the heap instead,
    and up to 1 GiB of free heap top (M_TRIM_THRESHOLD) stays mapped. The
    setting cannot be undone, and every process forked later inherits it.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    return True


def _child(job: Job, sender: multiprocessing.connection.Connection) -> None:
    # the handlers inherited from the sweep would raise KeyboardInterrupt here;
    # a job process ends at once on SIGINT or SIGTERM, with no traceback
    for signum in INTERRUPTS:
        signal.signal(signum, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, INTERRUPTS)  # blocked by _forked until now
    sender.send(run_job(job))


def _forked(jobs: list[Job], workers: int) -> Iterator[JobResult]:
    """Each job's result from a process of its own, forked from this one, as the job finishes.

    The jobs are forked in the order given, and at most `workers` of them
    run at once: the next job is forked only when one ends, so no job waits
    in a queue. A process inherits this one's modules as they are (a patched
    run_job included) and its BLAS thread count, and sends run_job's result
    back through a pipe. run_job raises nothing, so a process that ends
    without sending a whole result died with its job, and only that job
    fails. Leaving early (an interrupt, or a consumer that stops) kills and
    joins every process still running.
    """
    fork, running = multiprocessing.get_context("fork"), {}
    try:
        for i, job in enumerate(jobs, 1):
            receiver, sender = fork.Pipe(duplex=False)
            process = fork.Process(target=_child, args=(job, sender))
            # an interrupt between the fork and the record in `running` would
            # leave the process unknown to the finally, so it waits until then
            masked = signal.pthread_sigmask(signal.SIG_BLOCK, INTERRUPTS)
            try:
                process.start()
                running[receiver] = job, process
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, masked)
            sender.close()  # the process holds the only writing end, so its death is EOF here
            # wait for a free slot, and after the last job for every result
            while running and (len(running) == workers or i == len(jobs)):
                receiver = multiprocessing.connection.wait(list(running))[0]
                done, process = running.pop(receiver)
                try:
                    result = receiver.recv()
                except (EOFError, OSError):  # no message, or part of one: the process died
                    result = None
                process.join()
                yield result or _failure(done, ChildProcessError(f"job process exited with code {process.exitcode}"))
    finally:
        for _, process in running.values():
            process.kill()
        for _, process in running.values():
            process.join()


def _finished(jobs: list[Job]) -> Iterator[JobResult]:
    """Each job's result, yielded once, as the job finishes.

    worker_count() > 1 runs that many trained jobs at once, each in a process
    of its own (see _forked), but never more than there are trained jobs or
    usable CPUs. They are forked longest expected first (SUBMIT_RANK, a
    stable sort), so the last job to finish is a short one. The default is
    serial: the jobs run in this process, in the order given. An early_stopping
    job whose `none` twin (the same job in every other field) is in the
    batch is not trained: as soon as the twin finishes, run_job replays it
    from the twin's result in this process, with the bytes training would
    give. Such a twin is trained with every row measured in full
    (Job.final_row_only cleared), because the replay's final row can be any
    of them. The jobs of a batch are distinct.
    """
    replayed = {replace(job, mode="early_stopping") for job in jobs if job.mode == "none"}.intersection(jobs)
    twins = {replace(job, mode="none") for job in replayed}
    trained = [replace(job, final_row_only=False) if job in twins else job for job in jobs if job not in replayed]
    workers = min(worker_count(), len(trained), len(os.sched_getaffinity(0)))
    results = (_forked(sorted(trained, key=lambda job: SUBMIT_RANK[job.mode]), workers) if workers > 1
               else map(run_job, trained))
    for result in results:
        yield result
        es_job = replace(result.job, mode="early_stopping")
        if result.job.mode == "none" and es_job in replayed:
            yield run_job(replace(es_job, twin=result))


def run_jobs(jobs: list[Job], quiet: bool) -> list[JobResult]:
    """Run every job (see _finished) and return results sorted by job coordinates.

    BLAS runs on one thread while the jobs run: this process sets
    scipy-openblas to one thread before the first job and restores the old
    count afterwards, also when a job raises, and every job process is forked
    from it, so it inherits that count. Before the first job this process
    also starts keeping the memory it frees, until it exits (see
    _keep_freed_memory), so a job reuses the pages the jobs before it
    touched; the job processes inherit that too. Failures do not stop the
    batch; a KeyboardInterrupt does, and no job starts or goes on running
    after it.
    Neither the order in which jobs finish nor the worker count reaches the
    output: results are sorted before anything is printed or returned.
    """
    _keep_freed_memory()
    blas_before = _blas_threads(1)
    try:
        results = sorted(_finished(jobs), key=lambda r: r.job.key)
    finally:
        if blas_before is not None:
            _blas_threads(blas_before)
    if not quiet:
        for r in results:
            label = f"{r.job.mode}{' ' + r.job.extra if r.job.extra else ''} s={r.job.noise:g} seed={r.job.seed}"
            if r.failed:
                print(f"  {label}: FAILED ({r.error})")
            else:
                row = r.record.final_row()
                tail = f"f1_avg={fmt(row.f1_avg)}" if row.f1_avg is not None else f"test_acc={fmt(row.test_acc)}"
                print(f"  {label}: epochs={len(r.record.rows)} {tail}")
    return results


def _run_command(out_dir: str, jobs: list[Job], quiet: bool, write, tail: str) -> int:
    """The steps every command shares once its config is checked and its jobs are listed.

    QREG_THREADS is settled before the output directory is made, so a bad
    value leaves no empty directory behind. write(results) writes the
    command's files from the sorted results. Then, unless quiet, a line says
    how many runs failed, followed by `tail`. The exit code is 3 if any run
    failed, else 0.
    """
    worker_count()
    os.makedirs(out_dir, exist_ok=True)
    results = run_jobs(jobs, quiet)
    write(results)
    failures = sum(r.failed for r in results)
    if failures and not quiet:
        print(f"{failures} of {len(results)} runs failed{tail}")
    return 3 if failures else 0


def _paired(results: list[JobResult], key, cells: list[tuple]) -> Iterator[tuple]:
    """(row, cell summary, reference summary) for each (row, cell, reference)
    of `cells`, in order, skipping those where every run of the cell or of
    its reference failed.

    key(result) names the cell a result belongs to; a cell's summary
    aggregates the records of its runs that did not fail. `row` holds the
    leading columns of the cell's output row.
    """
    grouped: dict = {}
    for r in results:
        if not r.failed:
            grouped.setdefault(key(r), []).append(r.record)
    summaries = {cell: aggregate_runs(records) for cell, records in grouped.items()}
    for row, cell, ref in cells:
        if cell in summaries and ref in summaries:
            yield row, summaries[cell], summaries[ref]


# ---------------------------------------------------------------- commands


def cmd_train(cfg: ExperimentConfig, out_dir: str, quiet: bool,
              mode: str | None = None, noise: float = 0.0) -> int:
    """Train one job per seed; write a per-run record CSV and checkpoint.

    The config is checked with `mode` (default: the first configured) and
    `noise` as its only mode and noise level, before any output exists.
    A noise of -0 is 0: the two train alike, so they share one fingerprint.
    """
    cfg = replace(cfg, modes=(mode if mode is not None else cfg.modes[0],), noise_levels=(noise + 0.0,))
    jobs = [Job(cfg=cfg, mode=cfg.modes[0], noise=cfg.noise_levels[0], seed=seed, keep_state=True)
            for seed in cfg.seeds]

    def write(results):
        for r in results:
            stem = f"{r.record.fingerprint}_{r.job.seed}"
            r.record.write_csv(os.path.join(out_dir, f"run_{stem}.csv"))
            if r.state is not None:
                write_container(os.path.join(out_dir, f"checkpoint_{stem}.qreg"), r.state, MAGIC_MODEL)

    return _run_command(out_dir, jobs, quiet, write, "")


def cmd_noise_sweep(cfg: ExperimentConfig, out_dir: str, quiet: bool) -> int:
    """Sweep modes x noise levels x seeds; write sweep.csv and sweep_mean.csv.

    sweep.csv holds one row per run; sweep_mean.csv aggregates seeds and
    reports each mode's gain over the 'none' baseline at the same noise
    level, which therefore must be part of the configured modes.
    """
    if "none" not in cfg.modes:
        raise ConfigError("noise sweep needs the 'none' baseline in the mode list",
                          key="experiment.modes")
    jobs = [
        Job(cfg=cfg, mode=mode, noise=s, seed=seed, final_row_only=True)
        for mode in cfg.modes for s in cfg.noise_levels for seed in cfg.seeds
    ]

    def write(results):
        _write_rows(os.path.join(out_dir, "sweep.csv"), ["mode", "s", "seed", "final_test_acc"],
                    [[r.job.mode, f"{r.job.noise:g}", str(r.job.seed), fmt(r.record.final_test_acc)]
                     for r in results if not r.failed])
        cells = [([mode, f"{s:g}"], (mode, s), ("none", s)) for mode in cfg.modes for s in cfg.noise_levels]
        rows = []
        for row, cell, base in _paired(results, lambda r: (r.job.mode, r.job.noise), cells):
            mean = cell.final_mean["test_acc"]
            gain = mean - base.final_mean["test_acc"]
            rows.append(row + [fmt(mean), fmt(cell.final_std["test_acc"]), fmt(gain)])
        _write_rows(os.path.join(out_dir, "sweep_mean.csv"),
                    ["mode", "s", "mean_acc", "std_acc", "gain_vs_baseline"], rows)

    return _run_command(out_dir, jobs, quiet, write, "; summaries cover the rest")


def _stability_variants(cfg: ExperimentConfig) -> list[tuple[str, str, ExperimentConfig]]:
    """(mode, hyper label, resolved config) for every swept hyperparameter.

    The reference of each mode is the variant whose config is `cfg` itself.
    It is appended when the grid in the config leaves it out, so
    gain_vs_reference is always well defined. Every label, the reference's
    too, is the mode's STABILITY_GRIDS label of the variant's sub-config.
    """
    variants = []
    for mode, (_, sub, _, label) in STABILITY_GRIDS.items():
        grid = [replace(cfg, **{sub: variant}) for variant in cfg.grid(mode)]
        if not grid:
            continue  # an empty grid disables that mode's sweep
        if cfg not in grid:
            grid.append(cfg)
        variants += [(mode, label.format(**vars(getattr(variant, sub))), variant) for variant in grid]
    return variants


def cmd_stability_sweep(cfg: ExperimentConfig, out_dir: str, quiet: bool) -> int:
    """Sweep each regularizer's strength knob; write stability.csv.

    Rows are (mode, hyper, s, gain_vs_reference): the seed-mean test accuracy
    of the hyper setting minus that of the configured reference setting at
    the same noise level. The reference row itself appears with gain 0.
    """
    variants = _stability_variants(cfg)
    if not variants:
        raise ConfigError("every stability grid is empty; nothing to sweep", key="stability")
    jobs = [
        Job(cfg=variant, mode=mode, noise=s, seed=seed, extra=label, final_row_only=True)
        for mode, label, variant in variants
        for s in cfg.noise_levels for seed in cfg.seeds
    ]

    def write(results):
        cells = [([mode, label, f"{s:g}"], (mode, variant, s), (mode, cfg, s))
                 for mode, label, variant in variants for s in cfg.noise_levels]
        rows = [row + [fmt(cell.final_mean["test_acc"] - ref.final_mean["test_acc"])]
                for row, cell, ref in _paired(results, lambda r: (r.job.mode, r.job.cfg, r.job.noise), cells)]
        _write_rows(os.path.join(out_dir, "stability.csv"), ["mode", "hyper", "s", "gain_vs_reference"], rows)

    return _run_command(out_dir, jobs, quiet, write, "; stability.csv covers the rest")


def cmd_multitask(cfg: ExperimentConfig, out_dir: str, quiet: bool) -> int:
    """Compare regularizers on the multi-task set; write multitask.csv.

    Early stopping runs systematically inside every mode (so it is not a
    separate mode here), and the comparison happens at the harshest
    configured noise level. Rows hold the seed-mean per-task F1 scores and
    their average.
    """
    if cfg.data_kind != "multitask":
        raise ConfigError("the multitask command needs kind = multitask", key="data.kind")
    jobs = [
        Job(cfg=cfg, mode=mode, noise=max(cfg.noise_levels), seed=seed, always_early_stop=True,
            final_row_only=True)
        for mode in MULTITASK_MODES for seed in cfg.seeds
    ]

    def write(results):
        columns = [f"f1_t{t}" for t in range(cfg.num_tasks)] + ["f1_avg"]
        # a mode is its own reference: its row needs only its own runs
        cells = [([mode], mode, mode) for mode in MULTITASK_MODES]
        rows = [row + [fmt(summary.final_mean[c]) for c in columns]
                for row, summary, _ in _paired(results, lambda r: r.job.mode, cells)]
        _write_rows(os.path.join(out_dir, "multitask.csv"), ["mode"] + columns, rows)

    return _run_command(out_dir, jobs, quiet, write, "; multitask.csv covers the rest")
