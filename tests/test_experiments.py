import functools
import json
import multiprocessing.connection
import os
import signal
import struct
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import qreg.cli
import qreg.experiments
from qreg.checkpoint import MAGIC_MODEL, read_container
from qreg.config import parse_config
from qreg.errors import ConfigError, TrainingError
from qreg.experiments import (
    SUBMIT_RANK,
    Job,
    JobResult,
    build_datasets,
    build_model,
    cmd_multitask,
    cmd_noise_sweep,
    cmd_stability_sweep,
    cmd_train,
    image_shape,
    run_job,
    run_jobs,
)
from qreg.records import RunRecord
from qreg.training import MODES

SMALL = """
[experiment]
seeds = 0,1
modes = none,quantization
noise_levels = 0.0,0.3

[data]
num_classes = 3
dim = 8
train_size = 240
test_size = 60
separation = 4.0

[training]
epochs = 3
batch_size = 32
"""

MULTI = """
[experiment]
seeds = 0
noise_levels = 0.0,0.3

[data]
kind = multitask
num_tasks = 4
dim = 12
train_size = 320
test_size = 80

[model]
preset = mlp-multitask

[training]
epochs = 3
batch_size = 40
"""


@pytest.fixture(scope="module")
def cfg():
    return parse_config(SMALL)


def test_build_datasets_partition_sizes(cfg):
    train_ds, val_ds, test_ds = build_datasets(cfg, seed=0, noise=0.0)
    assert test_ds.n == 60
    assert val_ds.n == round(0.1 * 240)
    assert train_ds.n == 240 - val_ds.n
    assert train_ds.features.shape[1] == 8


def test_build_datasets_noise_touches_train_only(cfg):
    clean_tr, clean_val, clean_te = build_datasets(cfg, seed=0, noise=0.0)
    noisy_tr, noisy_val, noisy_te = build_datasets(cfg, seed=0, noise=0.4)
    np.testing.assert_array_equal(clean_val.labels, noisy_val.labels)
    np.testing.assert_array_equal(clean_te.labels, noisy_te.labels)
    np.testing.assert_array_equal(clean_tr.features, noisy_tr.features)
    changed = (clean_tr.labels != noisy_tr.labels).sum()
    assert 0 < changed <= round(0.4 * clean_tr.n)


def test_build_datasets_noise_is_seeded_by_run_seed(cfg):
    a, _, _ = build_datasets(cfg, seed=0, noise=0.3)
    b, _, _ = build_datasets(cfg, seed=0, noise=0.3)
    c, _, _ = build_datasets(cfg, seed=1, noise=0.3)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert (a.labels != c.labels).any()
    # features and the underlying partition never depend on the run seed
    np.testing.assert_array_equal(a.features, c.features)


def test_image_shape_near_square_factorization():
    assert image_shape(16) == (1, 4, 4)
    assert image_shape(32) == (1, 4, 8)
    assert image_shape(12) == (1, 3, 4)
    assert image_shape(7) == (1, 1, 7)  # prime dims degrade to a strip


def test_cnn_preset_reshapes_features_to_images():
    cnn_cfg = parse_config(
        "[data]\nnum_classes = 2\ndim = 32\ntrain_size = 40\ntest_size = 10\n"
        "[model]\npreset = cnn-small\n"
    )
    train_ds, _, _ = build_datasets(cnn_cfg, seed=0, noise=0.0)
    assert train_ds.features.shape[1:] == (1, 4, 8)
    model = build_model(cnn_cfg, seed=0, dropout_p=0.0)
    assert model.input_shape == (1, 4, 8)


def test_build_model_presets(cfg):
    model = build_model(cfg, seed=0, dropout_p=0.0)
    assert model.head == "softmax" and model.out_dim == 3
    multi = build_model(parse_config(MULTI), seed=0, dropout_p=0.0)
    assert multi.head == "sigmoid" and multi.out_dim == 4
    # same seed, same init
    again = build_model(cfg, seed=0, dropout_p=0.0)
    np.testing.assert_array_equal(model.layers[0].weight.value, again.layers[0].weight.value)


def test_run_job_returns_record_and_state(cfg):
    result = run_job(Job(cfg=cfg, mode="none", noise=0.0, seed=0))
    assert not result.failed
    assert result.record.seed == 0
    assert result.record.fingerprint == cfg.fingerprint("none", 0.0)
    assert len(result.record.rows) == 3
    assert "layer0.weight" in result.state


def test_run_jobs_sorts_results_regardless_of_input_order(cfg):
    jobs = [
        Job(cfg=cfg, mode="quantization", noise=0.3, seed=1),
        Job(cfg=cfg, mode="none", noise=0.0, seed=0),
        Job(cfg=cfg, mode="none", noise=0.3, seed=0),
    ]
    results = run_jobs(jobs, quiet=True)
    assert [r.job.key for r in results] == sorted(j.key for j in jobs)


def test_cmd_train_writes_runs_and_checkpoints(cfg, tmp_path):
    out = tmp_path / "out"
    assert cmd_train(cfg, str(out), quiet=True) == 0
    fp = cfg.fingerprint("none", 0.0)
    for seed in (0, 1):
        csv = out / f"run_{fp}_{seed}.csv"
        ckpt = out / f"checkpoint_{fp}_{seed}.qreg"
        assert csv.exists() and ckpt.exists()
        assert csv.read_text().startswith("epoch,train_loss,val_loss,")
        state = read_container(ckpt, MAGIC_MODEL)
        model = build_model(cfg, seed=seed, dropout_p=0.0)
        model.load_state_dict(state)  # shapes and key set line up exactly


def test_cmd_train_honors_mode_and_noise(cfg, tmp_path):
    out = tmp_path / "out"
    assert cmd_train(cfg, str(out), quiet=True, mode="quantization", noise=0.3) == 0
    fp = cfg.fingerprint("quantization", 0.3)
    assert (out / f"run_{fp}_0.csv").exists()
    with pytest.raises(ConfigError, match="mode"):
        cmd_train(cfg, str(out), quiet=True, mode="ridge")


def test_cmd_noise_sweep_schema_and_determinism(cfg, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cmd_noise_sweep(cfg, str(out_a), quiet=True) == 0
    assert cmd_noise_sweep(cfg, str(out_b), quiet=True) == 0
    sweep = (out_a / "sweep.csv").read_text()
    lines = sweep.splitlines()
    assert lines[0] == "mode,s,seed,final_test_acc"
    # 2 modes x 2 noise levels x 2 seeds
    assert len(lines) == 1 + 8
    mean = (out_a / "sweep_mean.csv").read_text()
    assert mean.splitlines()[0] == "mode,s,mean_acc,std_acc,gain_vs_baseline"
    baseline_rows = [l for l in mean.splitlines()[1:] if l.startswith("none,")]
    assert all(row.endswith(",0") for row in baseline_rows)
    assert sweep == (out_b / "sweep.csv").read_text()
    assert mean == (out_b / "sweep_mean.csv").read_text()


def test_cmd_noise_sweep_requires_baseline_mode(tmp_path):
    no_base = parse_config(SMALL.replace("modes = none,quantization", "modes = quantization"))
    with pytest.raises(ConfigError, match="none"):
        cmd_noise_sweep(no_base, str(tmp_path), quiet=True)


def test_cmd_noise_sweep_survives_div_failures(cfg, tmp_path, monkeypatch):
    real = qreg.experiments.train

    def flaky(model, train_ds, val_ds, test_ds, settings):
        if settings.mode == "quantization" and settings.seed == 1:
            raise TrainingError("loss diverged in epoch 1")
        return real(model, train_ds, val_ds, test_ds, settings)

    monkeypatch.setattr(qreg.experiments, "train", flaky)
    out = tmp_path / "out"
    assert cmd_noise_sweep(cfg, str(out), quiet=True) == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 6  # the two failed runs are absent
    # quantization cells aggregate the surviving seed; baseline cells keep both
    mean_lines = (out / "sweep_mean.csv").read_text().splitlines()
    assert len(mean_lines) == 1 + 4


def _diverging(monkeypatch, *fingerprints):
    """Make every job whose fingerprint is listed fail in its first epoch."""
    real = qreg.experiments.train

    def train(model, train_ds, val_ds, test_ds, settings):
        if settings.fingerprint in fingerprints:
            raise TrainingError("loss diverged in epoch 1")
        return real(model, train_ds, val_ds, test_ds, settings)

    monkeypatch.setattr(qreg.experiments, "train", train)


@pytest.fixture(scope="module")
def clean_sweep(cfg, tmp_path_factory):
    """The rows of sweep.csv and sweep_mean.csv of a noise sweep of `cfg` in which no job fails."""
    out = tmp_path_factory.mktemp("clean")
    assert cmd_noise_sweep(cfg, str(out), quiet=True) == 0
    return {name: (out / name).read_text().splitlines() for name in ("sweep.csv", "sweep_mean.csv")}


def test_a_cell_whose_every_seed_fails_has_no_mean_row(cfg, tmp_path, monkeypatch, clean_sweep):
    _diverging(monkeypatch, cfg.fingerprint("quantization", 0.3))
    out = tmp_path / "out"
    assert cmd_noise_sweep(cfg, str(out), quiet=True) == 3
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep == [row for row in clean_sweep["sweep.csv"] if not row.startswith("quantization,0.3,")]
    mean = (out / "sweep_mean.csv").read_text().splitlines()
    assert mean == [row for row in clean_sweep["sweep_mean.csv"] if not row.startswith("quantization,0.3,")]
    assert len(mean) == 1 + 3


def test_a_failed_baseline_drops_every_mean_row_at_its_noise_level(cfg, tmp_path, monkeypatch, clean_sweep):
    _diverging(monkeypatch, cfg.fingerprint("none", 0.3))
    out = tmp_path / "out"
    assert cmd_noise_sweep(cfg, str(out), quiet=True) == 3
    # sweep.csv keeps each run that survived, the quantization runs at s = 0.3 included
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep == [row for row in clean_sweep["sweep.csv"] if not row.startswith("none,0.3,")]
    assert len(sweep) == 1 + 6
    mean = (out / "sweep_mean.csv").read_text().splitlines()
    assert mean == [row for row in clean_sweep["sweep_mean.csv"] if ",0.3," not in row]
    assert [row.split(",")[:2] for row in mean[1:]] == [["none", "0"], ["quantization", "0"]]


def test_a_failed_stability_reference_drops_every_variant_of_its_mode_at_its_noise_level(tmp_path, monkeypatch):
    cfg = parse_config(SMALL + "\n[stability]\nquant_bits = 4,8\nprune_ratios = 0.75\ndropout_rates =\n")
    cfg = replace(cfg, seeds=(0,), epochs=1)
    clean = tmp_path / "clean"
    assert cmd_stability_sweep(cfg, str(clean), quiet=True) == 0
    _diverging(monkeypatch, cfg.fingerprint("quantization", 0.3))  # the w4a4 reference at s = 0.3
    out = tmp_path / "out"
    assert cmd_stability_sweep(cfg, str(out), quiet=True) == 3
    rows = (out / "stability.csv").read_text().splitlines()
    assert rows == [row for row in (clean / "stability.csv").read_text().splitlines()
                    if not row.startswith("quantization,") or row.split(",")[2] != "0.3"]
    assert [row.split(",")[:3] for row in rows[1:]] == [
        ["quantization", "w4a4", "0"], ["quantization", "w8a8", "0"], ["pruning", "0.75", "0"],
        ["pruning", "0.75", "0.3"]]


def test_a_multitask_mode_whose_every_seed_fails_has_no_row(tmp_path, monkeypatch):
    cfg = replace(parse_config(MULTI), seeds=(0, 1), epochs=2)
    clean = tmp_path / "clean"
    assert cmd_multitask(cfg, str(clean), quiet=True) == 0
    _diverging(monkeypatch, cfg.fingerprint("dropout", 0.3, always_early_stop=True))
    out = tmp_path / "out"
    assert cmd_multitask(cfg, str(out), quiet=True) == 3
    rows = (out / "multitask.csv").read_text().splitlines()
    assert rows == [row for row in (clean / "multitask.csv").read_text().splitlines()
                    if not row.startswith("dropout,")]
    assert [row.split(",")[0] for row in rows[1:]] == ["none", "weight_decay", "label_smoothing", "pruning",
                                                      "quantization"]


def test_cmd_stability_sweep_schema(tmp_path):
    stab_cfg = parse_config(
        SMALL + "\n[stability]\nquant_bits = 4,8\nprune_ratios = 0.75\ndropout_rates = 0.1\n"
    )
    out = tmp_path / "out"
    assert cmd_stability_sweep(stab_cfg, str(out), quiet=True) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0] == "mode,hyper,s,gain_vs_reference"
    # grids: quant {w4a4, w8a8}, prune {0.75}, dropout {0.1}; 2 noise levels each
    assert len(lines) == 1 + (2 + 1 + 1) * 2
    for ref in ("quantization,w4a4", "pruning,0.75", "dropout,0.1"):
        ref_rows = [l for l in lines[1:] if l.startswith(ref + ",")]
        assert ref_rows and all(row.endswith(",0") for row in ref_rows)


def test_stability_reference_is_the_noise_sweep_job(tmp_path, monkeypatch):
    cfg = parse_config(SMALL + "\n[stability]\nquant_bits = 4,8\nprune_ratios = 0.5\ndropout_rates = 0.1\n")
    cfg = replace(cfg, seeds=(0,), noise_levels=(0.3,), epochs=1)
    results = []
    real_run_jobs = qreg.experiments.run_jobs

    def capture(jobs, quiet):
        results.extend(real_run_jobs(jobs, quiet))
        return results

    monkeypatch.setattr(qreg.experiments, "run_jobs", capture)
    assert cmd_stability_sweep(cfg, str(tmp_path), quiet=True) == 0
    prints = {(r.job.mode, r.job.extra): r.record.fingerprint for r in results}
    # the reference trains exactly the noise-sweep job, so it carries its fingerprint
    for mode, ref in (("quantization", "w4a4"), ("pruning", "0.75"), ("dropout", "0.1")):
        assert prints[mode, ref] == cfg.fingerprint(mode, 0.3)
    assert prints["quantization", "w8a8"] != cfg.fingerprint("quantization", 0.3)
    assert prints["pruning", "0.5"] != cfg.fingerprint("pruning", 0.3)


def test_stability_reference_off_the_grid_is_appended_once_with_its_own_label():
    cfg = parse_config(SMALL + "\n[quantization]\nweight_bits = 4\nact_bits = 8\n"
                               "[stability]\nquant_bits = 4,8\nprune_ratios =\ndropout_rates =\n")
    variants = qreg.experiments._stability_variants(cfg)
    assert [(mode, label) for mode, label, _ in variants] == [
        ("quantization", "w4a4"), ("quantization", "w8a8"), ("quantization", "w4a8")]
    assert variants[-1][2] is cfg
    assert [(v.quant.weight_bits, v.quant.act_bits) for _, _, v in variants[:2]] == [(4, 4), (8, 8)]


def test_stability_empty_grid_disables_a_mode(tmp_path):
    cfg = parse_config(
        SMALL + "\n[stability]\nquant_bits = 4\nprune_ratios =\ndropout_rates =\n"
    )
    out = tmp_path / "out"
    assert cmd_stability_sweep(cfg, str(out), quiet=True) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert all(l.startswith("quantization,") for l in lines[1:])
    # single-value grid matching the reference: every gain is exactly 0
    assert all(l.endswith(",0") for l in lines[1:])


def test_stability_all_grids_empty_is_a_config_error(tmp_path):
    cfg = parse_config(
        SMALL + "\n[stability]\nquant_bits =\nprune_ratios =\ndropout_rates =\n"
    )
    with pytest.raises(ConfigError, match="stability"):
        cmd_stability_sweep(cfg, str(tmp_path), quiet=True)


def test_cmd_multitask_schema(tmp_path):
    cfg = parse_config(MULTI)
    out = tmp_path / "out"
    assert cmd_multitask(cfg, str(out), quiet=True) == 0
    lines = (out / "multitask.csv").read_text().splitlines()
    assert lines[0] == "mode,f1_t0,f1_t1,f1_t2,f1_t3,f1_avg"
    modes = [l.split(",")[0] for l in lines[1:]]
    assert modes == ["none", "weight_decay", "dropout", "label_smoothing", "pruning", "quantization"]
    for line in lines[1:]:
        cells = line.split(",")[1:]
        assert len(cells) == 5
        assert all(0.0 <= float(c) <= 1.0 for c in cells)


def test_cmd_multitask_rejects_single_task_config(cfg, tmp_path):
    with pytest.raises(ConfigError, match="multitask"):
        cmd_multitask(cfg, str(tmp_path), quiet=True)


def test_parallel_workers_match_serial_output(cfg, tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cmd_noise_sweep(cfg, str(serial), quiet=True) == 0
    monkeypatch.setenv("QREG_THREADS", "2")
    assert cmd_noise_sweep(cfg, str(parallel), quiet=True) == 0
    for name in ("sweep.csv", "sweep_mean.csv"):
        assert (serial / name).read_text() == (parallel / name).read_text()


# ------------------------------------------------- early stopping replayed

REPLAY = """
[experiment]
seeds = 0,1
modes = none,early_stopping,weight_decay
noise_levels = 0.0,0.4

[data]
num_classes = 3
dim = 8
train_size = 240
test_size = 60
separation = 2.0

[training]
epochs = 6
batch_size = 32
learning_rate = 0.01

[regularization]
early_stop_patience = {patience}
early_stop_metric = {metric}
"""


def replay_cfg(patience=1, metric="val_loss"):
    return parse_config(REPLAY.format(patience=patience, metric=metric))


def sweep_jobs(cfg, modes=None):
    return [Job(cfg=cfg, mode=mode, noise=s, seed=seed)
            for mode in (modes or cfg.modes) for s in cfg.noise_levels for seed in cfg.seeds]


def assert_same_result(replayed, trained):
    assert replayed.job == trained.job
    assert replayed.error == trained.error
    rec, ref = replayed.record, trained.record
    assert (rec.fingerprint, rec.seed, rec.num_tasks, rec.best_epoch) == \
        (ref.fingerprint, ref.seed, ref.num_tasks, ref.best_epoch)
    assert len(rec.rows) == len(ref.rows)
    for a, b in zip(rec.rows, ref.rows):
        assert vars(a) == vars(b)  # every EpochRow field, compared exactly


@pytest.mark.parametrize("metric", ["val_loss", "val_accuracy"])
@pytest.mark.parametrize("patience", [0, 1, 2, 6])
def test_replayed_early_stopping_equals_training_it(patience, metric):
    cfg = replay_cfg(patience, metric)
    results = run_jobs(sweep_jobs(cfg), quiet=True)
    replayed = [r for r in results if r.job.mode == "early_stopping"]
    assert len(replayed) == 4
    for r in replayed:
        assert r.state is None and r.job.twin is None
        trained = run_job(r.job)
        assert trained.state is not None
        assert_same_result(r, trained)
    lengths = [len(r.record.rows) for r in replayed]
    if patience >= cfg.epochs:
        assert lengths == [cfg.epochs] * 4  # patience outlasts the run
    if patience == 0 and metric == "val_loss":
        assert min(lengths) < cfg.epochs  # the replay does cut runs short


@pytest.mark.slow
def test_replayed_sweep_output_is_identical_for_worker_counts(tmp_path, monkeypatch, capsys):
    cfg = replay_cfg(patience=1)
    monkeypatch.delenv("QREG_THREADS", raising=False)
    assert cmd_noise_sweep(cfg, str(tmp_path / "serial"), quiet=False) == 0
    serial_out = capsys.readouterr().out
    monkeypatch.setenv("QREG_THREADS", "2")
    assert cmd_noise_sweep(cfg, str(tmp_path / "pool"), quiet=False) == 0
    assert capsys.readouterr().out == serial_out
    assert "early_stopping s=0.4 seed=1: epochs=" in serial_out
    for name in ("sweep.csv", "sweep_mean.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


def test_replay_follows_a_twin_that_fails(monkeypatch):
    real = qreg.experiments.train
    fail_epoch = None

    def diverging(model, train_ds, val_ds, test_ds, settings):
        # every run that reaches fail_epoch dies there, as a run whose
        # trajectory diverges at that epoch would
        result = real(model, train_ds, val_ds, test_ds, settings)
        if len(result.record.rows) >= fail_epoch:
            rows = result.record.rows[:fail_epoch - 1]
            raise TrainingError(f"loss diverged in epoch {fail_epoch}",
                                record=replace(result.record, rows=rows, best_epoch=0))
        return result

    monkeypatch.setattr(qreg.experiments, "train", diverging)
    outcomes = set()
    for patience, fail_epoch in [(0, 1), (0, 4), (1, 3), (1, 6), (2, 4)]:
        cfg = replay_cfg(patience)
        results = run_jobs(sweep_jobs(cfg, ["none", "early_stopping"]), quiet=True)
        twins = {(r.job.noise, r.job.seed): r for r in results if r.job.mode == "none"}
        assert all(t.failed for t in twins.values())
        for r in results:
            if r.job.mode != "early_stopping":
                continue
            twin = twins[(r.job.noise, r.job.seed)]
            if r.failed:
                assert r.error == twin.error
                assert [vars(row) for row in r.record.rows] == [vars(row) for row in twin.record.rows]
            else:
                assert len(r.record.rows) < fail_epoch
            assert_same_result(r, run_job(r.job))
            outcomes.add(r.failed)
    assert outcomes == {True, False}


def test_run_jobs_trains_every_job_but_the_replayed_one(monkeypatch):
    cfg = replay_cfg(patience=1)
    calls = {"run_job": 0, "train": 0}
    real_run_job, real_train = qreg.experiments.run_job, qreg.experiments.train

    def counted_run_job(job):
        calls["run_job"] += 1
        return real_run_job(job)

    def counted_train(*args):
        calls["train"] += 1
        return real_train(*args)

    monkeypatch.setattr(qreg.experiments, "run_job", counted_run_job)
    monkeypatch.setattr(qreg.experiments, "train", counted_train)
    monkeypatch.delenv("QREG_THREADS", raising=False)
    jobs = [Job(cfg=cfg, mode=mode, noise=0.4, seed=0) for mode in MODES]
    results = run_jobs(jobs, quiet=True)
    assert calls == {"run_job": 7, "train": 6}
    assert [r.job.mode for r in results] == sorted(MODES)
    assert [r.state is None for r in results] == [m == "early_stopping" for m in sorted(MODES)]


def test_early_stopping_without_its_twin_is_trained():
    alone = run_jobs([Job(cfg=replay_cfg(), mode="early_stopping", noise=0.0, seed=0),
                      Job(cfg=replay_cfg(), mode="none", noise=0.4, seed=0)], quiet=True)
    assert all(r.state is not None for r in alone)


@pytest.mark.parametrize("cpus, expected", [(8, 3), (2, 2)])
def test_the_pool_is_capped_by_trained_jobs_and_usable_cpus(cfg, monkeypatch, cpus, expected):
    sizes = []

    def forked(jobs, workers):
        sizes.append(workers)
        return map(qreg.experiments.run_job, jobs)  # runs the jobs in this process, so no process starts

    monkeypatch.setattr(qreg.experiments, "_forked", forked)
    monkeypatch.setattr(qreg.experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setenv("QREG_THREADS", "64")
    jobs = [Job(cfg=replace(cfg, epochs=1), mode="none", noise=0.0, seed=seed) for seed in range(3)]
    results = run_jobs(jobs, quiet=True)
    assert sizes == [expected]
    assert [r.job.seed for r in results] == [0, 1, 2] and not any(r.failed for r in results)
    monkeypatch.setenv("QREG_THREADS", "1")
    assert [r.record.rows for r in run_jobs(jobs, quiet=True)] == [r.record.rows for r in results]
    assert sizes == [expected]  # one worker is the serial path, with no job process


def test_the_pool_gets_the_longest_expected_jobs_first(monkeypatch):
    submitted = []

    def forked(jobs, workers):
        submitted.extend((job.mode, job.noise, job.seed) for job in jobs)
        return map(qreg.experiments.run_job, jobs)  # runs the jobs in this process, so no process starts

    monkeypatch.setattr(qreg.experiments, "_forked", forked)
    monkeypatch.setattr(qreg.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = replace(replay_cfg(), epochs=1)
    # the last job is an early_stopping job with no `none` twin, so it is trained
    jobs = sweep_jobs(cfg, MODES)[::2] + [Job(cfg=cfg, mode="early_stopping", noise=0.4, seed=1)]
    assert sorted(SUBMIT_RANK) == sorted(MODES)
    monkeypatch.setenv("QREG_THREADS", "2")
    pooled = run_jobs(jobs, quiet=True)
    assert submitted == [(mode, s, seed) for mode in ("quantization", "dropout", "weight_decay", "none")
                         for s, seed in ((0.0, 0), (0.4, 0))] + [("early_stopping", 0.4, 1)] + \
        [(mode, s, seed) for mode in ("label_smoothing", "pruning") for s, seed in ((0.0, 0), (0.4, 0))]
    monkeypatch.setenv("QREG_THREADS", "1")
    serial = run_jobs(jobs, quiet=True)
    assert len(submitted) == 13  # the serial run forked nothing
    assert [r.job for r in pooled] == [r.job for r in serial]
    assert [[vars(row) for row in r.record.rows] for r in pooled] == \
        [[vars(row) for row in r.record.rows] for r in serial]


# the failure of a job whose process ended with exit code 1 before its whole result arrived
DIED = "ChildProcessError: job process exited with code 1"


@pytest.fixture()
def deadline():
    """Fails a test still waiting on its job processes after 60 s, where it would hang."""
    def expire(signum, frame):
        raise TimeoutError("job processes still awaited after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)  # a forked process does not inherit the alarm
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def stub_result(job):
    """What a run_job that trains nothing returns."""
    return JobResult(job=replace(job, twin=None), record=RunRecord(fingerprint=job.mode, seed=job.seed), state=None)


@pytest.mark.parametrize("threads, dies", [("1", False), ("2", False), ("2", True)],
                         ids=["serial", "forked", "a-process-dies"])
def test_every_job_is_yielded_once_and_a_replay_right_after_its_twin(monkeypatch, tmp_path, deadline,
                                                                     threads, dies):
    cfg = replace(replay_cfg(), epochs=1)
    jobs = sweep_jobs(cfg)  # none, early_stopping and weight_decay x 2 noise levels x 2 seeds
    lost = Job(cfg=cfg, mode="none", noise=0.4, seed=1)
    log, parent, calls, sizes = tmp_path / "calls", os.getpid(), [], []
    real_run_job, real_forked = qreg.experiments.run_job, qreg.experiments._forked

    def stub_run_job(job):
        # trains nothing, but replays; the log sees every call, `calls` only those made in this process
        with open(log, "a") as fh:
            fh.write(f"{job.key}\n")
        calls.append(job)
        if dies and job == lost and os.getpid() != parent:
            os._exit(1)  # kills the job process, as a crash in native code would
        return real_run_job(job) if job.twin is not None else stub_result(job)

    def forked(jobs, workers):
        sizes.append(workers)
        return real_forked(jobs, workers)

    monkeypatch.setattr(qreg.experiments, "run_job", stub_run_job)
    monkeypatch.setattr(qreg.experiments, "_forked", forked)
    monkeypatch.setattr(qreg.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("QREG_THREADS", threads)
    results = list(qreg.experiments._finished(jobs))

    assert sorted(r.job.key for r in results) == sorted(job.key for job in jobs)  # each job exactly once
    assert sorted(log.read_text().splitlines()) == sorted(str(job.key) for job in jobs)  # each through run_job once
    assert sizes == {"1": [], "2": [2]}[threads]
    # a process that dies fails its own job, and the replay of that job's early_stopping twin, only
    failed = {lost.key, replace(lost, mode="early_stopping").key} if dies else set()
    assert [r.error for r in results] == [DIED if r.job.key in failed else None for r in results]
    # only `none` results are twins, and each replay follows its twin at once
    replays = [job for job in calls if job.twin is not None]
    assert sorted(job.key for job in replays) == sorted(job.key for job in jobs if job.mode == "early_stopping")
    for job in replays:
        i = next(i for i, r in enumerate(results) if r.job == job)
        assert results[i - 1] is job.twin and job.twin.job == replace(job, mode="none")


def test_closing_the_stream_early_leaves_no_job_process(monkeypatch, deadline):
    def stub_run_job(job):
        if job.mode != "quantization":
            time.sleep(60)  # still running when the stream is closed
        return stub_result(job)

    monkeypatch.setattr(qreg.experiments, "run_job", stub_run_job)
    monkeypatch.setattr(qreg.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("QREG_THREADS", "2")
    cfg = replace(replay_cfg(), epochs=1)
    stream = qreg.experiments._finished([Job(cfg=cfg, mode=mode, noise=0.0, seed=0)
                                         for mode in ("quantization", "dropout", "weight_decay")])
    start = time.monotonic()
    assert next(stream).job.mode == "quantization"  # forked first, and the first to end
    assert multiprocessing.active_children()
    stream.close()
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30  # the running job was killed, not waited for


def test_an_interrupt_as_a_job_process_starts_leaves_no_process(monkeypatch, deadline):
    real_start = multiprocessing.get_context("fork").Process.start

    def start(process):
        real_start(process)
        os.kill(os.getpid(), signal.SIGTERM)  # between the fork and the sweep's record of the process

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", start)
    monkeypatch.setattr(qreg.experiments, "run_job", lambda job: time.sleep(60))  # killed, never waited for
    monkeypatch.setattr(qreg.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("QREG_THREADS", "2")
    previous = signal.signal(signal.SIGTERM, qreg.cli._interrupt)  # as cli.main handles SIGTERM
    try:
        with pytest.raises(KeyboardInterrupt):
            list(qreg.experiments._finished([Job(cfg=replay_cfg(), mode="none", noise=0.0, seed=seed)
                                             for seed in range(2)]))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sent, error", [("nothing", DIED), ("part", DIED),
                                         ("nothing, killed by SIGTERM", DIED.replace("code 1", "code -15"))])
def test_a_result_that_does_not_arrive_whole_fails_its_own_job_only(monkeypatch, deadline, sent, error):
    real_send = multiprocessing.connection.Connection.send

    def send(conn, result):
        # called in a job process only: seed 1 sends no message, or the head of one, and dies
        if result.job.seed == 1:
            if sent == "part":
                os.write(conn.fileno(), struct.pack("!i", 1 << 16) + bytes(16))  # 16 of 65,536 bytes
            if sent.endswith("SIGTERM"):
                os.kill(os.getpid(), signal.SIGTERM)  # a job process is not spared the default action
            os._exit(1)
        real_send(conn, result)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", send)
    monkeypatch.setattr(qreg.experiments, "run_job", stub_result)
    monkeypatch.setattr(qreg.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("QREG_THREADS", "2")
    cfg = replace(replay_cfg(), epochs=1)
    jobs = [Job(cfg=cfg, mode="weight_decay", noise=0.0, seed=seed) for seed in range(3)]
    results = run_jobs(jobs, quiet=True)
    assert [r.job for r in results] == jobs
    assert [r.error for r in results] == [None, error, None]
    assert multiprocessing.active_children() == []


def test_every_trained_job_builds_its_own_read_only_datasets_and_a_replay_builds_none(cfg, tmp_path,
                                                                                    monkeypatch):
    builds, built_by = [], {}
    real_build, real_run_job = qreg.experiments.build_datasets, qreg.experiments.run_job

    def counted(*args):
        builds.append((args[1:], real_build(*args)))
        return builds[-1][1]

    def tracked(job):
        before = len(builds)
        result = real_run_job(job)
        built_by[(job.mode, job.seed, job.twin is not None)] = [key for key, _ in builds[before:]]
        return result

    monkeypatch.setattr(qreg.experiments, "build_datasets", counted)
    monkeypatch.setattr(qreg.experiments, "run_job", tracked)
    monkeypatch.delenv("QREG_THREADS", raising=False)
    three = replace(cfg, modes=("none", "early_stopping", "quantization"), noise_levels=(0.3,), epochs=1)
    assert cmd_noise_sweep(three, str(tmp_path / "out"), quiet=True) == 0
    assert len(builds) == 4
    assert built_by == {(mode, seed, mode == "early_stopping"): [] if mode == "early_stopping" else [(seed, 0.3)]
                        for mode in three.modes for seed in three.seeds}
    for _, datasets in builds:
        for ds in datasets:
            for array in (ds.features, ds.labels):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


def _blas_threads() -> int:
    return qreg.experiments._openblas().scipy_openblas_get_num_threads64_()


def test_pool_workers_run_blas_on_one_thread(cfg, monkeypatch):
    lib = qreg.experiments._openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")

    # forked workers inherit the patch, which pickles by the name it replaces;
    # each job reports the pid and the BLAS thread count of the process it ran in
    @functools.wraps(qreg.experiments.run_job)
    def reporting_run_job(job):
        return qreg.experiments._failure(job, RuntimeError(f"{os.getpid()} {_blas_threads()}"))

    monkeypatch.setattr(qreg.experiments, "run_job", reporting_run_job)
    monkeypatch.setattr(qreg.experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("QREG_THREADS", "2")
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        results = run_jobs([Job(cfg=cfg, mode="none", noise=0.0, seed=seed) for seed in range(4)], quiet=True)
        reports = [r.error.split()[1:] for r in results]
        assert [threads for _, threads in reports] == ["1"] * 4
        assert str(os.getpid()) not in {pid for pid, _ in reports}
        assert _blas_threads() == 2  # the parent gets its count back
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_a_serial_sweep_runs_blas_on_one_thread_and_restores_the_count(cfg, monkeypatch):
    lib = qreg.experiments._openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    seen = []

    def recording_run_job(job):
        seen.append(_blas_threads())
        if job.seed == 1:
            raise KeyboardInterrupt
        return qreg.experiments._failure(job, RuntimeError("not trained"))

    monkeypatch.setattr(qreg.experiments, "run_job", recording_run_job)
    monkeypatch.delenv("QREG_THREADS", raising=False)
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        assert len(run_jobs([Job(cfg=cfg, mode="none", noise=0.0, seed=0)], quiet=True)) == 1
        assert seen == [1] and _blas_threads() == 2
        with pytest.raises(KeyboardInterrupt):
            run_jobs([Job(cfg=cfg, mode="none", noise=0.0, seed=seed) for seed in (0, 1)], quiet=True)
        assert seen == [1, 1, 1] and _blas_threads() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


# Two cnn-small jobs of 3 epochs on the default data sizes: enough eval and
# im2col arrays that a heap which hands freed pages back faults thousands in
RETAINED = """
[experiment]
seeds = 0,1
modes = none

[model]
preset = cnn-small

[training]
epochs = 3
"""

# runs the RETAINED jobs through one run_jobs batch in a fresh interpreter, so
# no earlier test has set the allocator, and prints the minor page faults of
# each job as [pid, faults, error]; with more than one worker, each job
# process runs its job twice and counts the second run
FAULTS = """
import json, os, resource, sys
import qreg.experiments as E
from qreg.config import parse_config

run_job = E.run_job

def reporting_run_job(job):
    for _ in range(1 if E.worker_count() == 1 else 2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = run_job(job)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return E._failure(job, RuntimeError(f"{os.getpid()} {faults} {result.error}"))

E.run_job = reporting_run_job
E.os.sched_getaffinity = lambda pid: {0, 1}
cfg = parse_config(sys.argv[1])
results = E.run_jobs([E.Job(cfg=cfg, mode="none", noise=0.0, seed=seed) for seed in cfg.seeds], quiet=True)
print(json.dumps([r.error.split(maxsplit=3)[1:] for r in results] + [str(os.getpid())]))
"""

# the CLI where libc has no mallopt
NO_MALLOPT = """
import ctypes, sys
import qreg.cli, qreg.experiments

class Libc:
    def __getattr__(self, name):
        raise AttributeError(name)

real = ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: Libc() if name is None else real(name, *args, **kwargs)
assert qreg.experiments._keep_freed_memory() is False
sys.exit(qreg.cli.main(sys.argv[1:]))
"""


def _python(*args, **env):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qreg.__file__)), **env)
    return subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_job_reuses_the_memory_that_jobs_before_it_freed(threads):
    proc = _python(FAULTS, RETAINED, QREG_THREADS=threads)
    assert proc.returncode == 0, proc.stderr
    *reports, sweep = json.loads(proc.stdout)
    assert [error for _, _, error in reports] == ["None", "None"]
    if threads == "1":  # the first job of a sweep faults its pages in; the second reuses them
        assert [pid for pid, _, _ in reports] == [sweep, sweep]
        reports = reports[1:]
    else:  # each job process reuses what its first run freed
        assert sweep not in {pid for pid, _, _ in reports}
    assert all(int(faults) < 500 for _, faults, _ in reports), reports


def test_without_mallopt_a_sweep_keeps_nothing_and_writes_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    args = ["noise-sweep", "--config", str(path), "--out"]
    assert qreg.cli.main([*args, str(tmp_path / "kept")]) == 0
    proc = _python(NO_MALLOPT, *args, str(tmp_path / "fallback"), QREG_THREADS="1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == capsys.readouterr().out
    for name in ("sweep.csv", "sweep_mean.csv"):
        assert (tmp_path / "fallback" / name).read_bytes() == (tmp_path / "kept" / name).read_bytes()
