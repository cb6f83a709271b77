"""train() is bit for bit the reference trainer (reference_trainer.py), end to end.

Kernel-level oracles (test_layers, test_eval, test_training) say where a
difference is; this says whether the composition differs at all: the prune
restart point, the stopper snapshot and reset, the eval chunking, the
quantizer wrapping, Adam's flat vector. Every EpochRow field, best_epoch
and every final parameter and buffer must be equal, bit for bit.
"""

from dataclasses import replace

import pytest
from reference_trainer import reference_train

import qreg.training
from qreg.config import parse_config
from qreg.experiments import MULTITASK_MODES, Job, build_datasets, build_model, run_job
from qreg.training import MODES

INI = """
[data]
kind = {kind}
num_classes = 4
num_tasks = 3
dim = 16
train_size = 160
test_size = 40

[model]
preset = {preset}

[training]
epochs = 4
batch_size = 32
learning_rate = 0.01

[regularization]
early_stop_patience = 1

[pruning]
ratio = 0.5
"""

KINDS = {"mlp-small": "blobs", "cnn-small": "blobs", "mlp-multitask": "multitask"}


def config(preset: str, **changes):
    return replace(parse_config(INI.format(preset=preset, kind=KINDS[preset])), **changes)


def assert_train_is_the_reference(cfg, mode: str, always_early_stop: bool = False, noise: float = 0.3):
    """Train one job through run_job and through the reference; return the reference's (rows, best_epoch)."""
    seed = 0
    got = run_job(Job(cfg=cfg, mode=mode, noise=noise, seed=seed, always_early_stop=always_early_stop))
    assert not got.failed, got.error
    settings = cfg.train_settings(mode, seed, noise, always_early_stop=always_early_stop)
    model = build_model(cfg, seed, settings.reg.dropout_p if mode == "dropout" else 0.0)
    rows, best_epoch, state = reference_train(model, *build_datasets(cfg, seed, noise), settings)
    # repr round-trips every float, so equal reprs are equal bits (-0.0 included)
    assert repr(got.record.rows) == repr(rows)
    assert got.record.best_epoch == best_epoch
    assert got.state.keys() == state.keys()
    for name, want in state.items():
        have = got.state[name]
        assert (have.dtype, have.shape, have.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    return rows, best_epoch


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("preset", sorted(KINDS))
def test_every_preset_and_mode_trains_as_the_reference(preset, mode):
    assert_train_is_the_reference(config(preset), mode)


def test_quantization_that_keeps_batchnorm_trains_as_the_reference():
    cfg = config("cnn-small")
    assert_train_is_the_reference(replace(cfg, quant=replace(cfg.quant, keep_batchnorm=True)), "quantization")


@pytest.mark.parametrize("mode", MULTITASK_MODES)
def test_the_multitask_protocol_trains_as_the_reference(mode):
    # every mode early-stops; under pruning the stopper restarts at the prune boundary
    assert_train_is_the_reference(config("mlp-multitask"), mode, always_early_stop=True)


@pytest.mark.parametrize("preset", sorted(KINDS))
def test_pruning_before_the_first_epoch_trains_as_the_reference(preset):
    cfg = config(preset)
    assert_train_is_the_reference(replace(cfg, prune=replace(cfg.prune, warmup_epochs=0)), "pruning")


@pytest.mark.parametrize("mode", ["none", "quantization"])
@pytest.mark.parametrize("preset", sorted(KINDS))
def test_eval_in_chunks_smaller_than_a_set_trains_as_the_reference(preset, mode, monkeypatch):
    # 144 training rows, 16 validation rows and 40 test rows: chunks of 48, 16 and 40 rows
    monkeypatch.setattr(qreg.training, "EVAL_BATCH", 48)
    assert_train_is_the_reference(config(preset), mode)


@pytest.mark.parametrize("metric", ["val_loss", "val_accuracy"])
def test_a_stopper_that_fires_trains_as_the_reference(metric):
    cfg = config("mlp-small", epochs=8, learning_rate=0.05)
    cfg = replace(cfg, reg=replace(cfg.reg, early_stop_patience=0, early_stop_metric=metric))
    rows, best_epoch = assert_train_is_the_reference(cfg, "early_stopping")
    assert len(rows) < cfg.epochs  # it stopped
    assert best_epoch < len(rows)  # and restored an earlier epoch
