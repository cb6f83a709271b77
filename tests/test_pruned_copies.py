"""Pruning on the real presets: masked equivalence through norms and flattens,
no state shared with the original, the near-1 ratio bound, and checkpoint reload."""

import copy
import csv

import numpy as np
import pytest

from qreg import tensor as T
from qreg.checkpoint import read_container
from qreg.cli import main
from qreg.config import load_config
from qreg.errors import ContractError
from qreg.experiments import build_datasets, build_model
from qreg.layers import Conv2d, Dense, build_cnn_small, build_mlp_multitask, build_mlp_small, forward
from qreg.losses import binary_ce_loss, cross_entropy_loss, one_hot
from qreg.pruning import FLOOR_SLACK, PruneSpec, keep_indices, prune_model
from qreg.records import fmt
from qreg.training import Adam, evaluate

PRESETS = {
    "cnn-small": lambda rng: build_cnn_small((2, 6, 5), 4, rng),
    "mlp-multitask": lambda rng: build_mlp_multitask(12, 3, rng, dropout_p=0.2),
    "mlp-small": lambda rng: build_mlp_small(12, 4, rng, dropout_p=0.2),
}


def _train_steps(model, rng, steps):
    """A few Adam steps on random data: Dense weights end up in Fortran
    order, and batch norms hold running statistics of their own."""
    opt = Adam(model.named_parameters(), lr=0.01)
    model.train_mode = True
    for _ in range(steps):
        x = rng.standard_normal((8,) + model.input_shape)
        logits = forward(model, x, rng=rng)
        if model.head == "sigmoid":
            loss = binary_ce_loss(logits, rng.integers(0, 2, (8, model.out_dim)).astype(np.float64))
        else:
            loss = cross_entropy_loss(logits, one_hot(rng.integers(0, model.out_dim, 8), model.out_dim))
        for _, p in opt.params:
            p.zero_grad()
        T.backward(loss)
        opt.step()
    model.train_mode = False


def _trained(preset, seed=0):
    rng = np.random.default_rng(seed)
    model = PRESETS[preset](rng)
    _train_steps(model, rng, 3)
    return model, rng


def _state_arrays(model):
    return [p.value for _, p in model.named_parameters()] + [
        b for layer in model.layers for _, b in layer.named_buffers()]


@pytest.mark.parametrize("criterion", ["lowest", "highest"])
@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.75])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_pruned_preset_equals_the_original_with_consumer_columns_zeroed(preset, ratio, criterion):
    model, rng = _trained(preset)
    assert any(np.isfortran(l.weight.value) for l in model.layers if isinstance(l, Dense))
    pruned = prune_model(model, PruneSpec(ratio=ratio, criterion=criterion))

    masked = copy.deepcopy(model)
    parametric = [i for i, l in enumerate(model.layers) if isinstance(l, (Dense, Conv2d))]
    for producer, consumer in zip(parametric, parametric[1:]):
        weight = model.layers[producer].weight.value
        dropped = np.setdiff1d(np.arange(weight.shape[0]), keep_indices(weight, ratio, criterion))
        consumer = masked.layers[consumer]
        w = consumer.weight.value.copy()
        # a flattened [C, H, W] input is C-major: channel c owns one block of columns
        w.reshape(w.shape[0], weight.shape[0], -1)[:, dropped] = 0.0
        consumer.weight.value = w

    x = rng.standard_normal((10,) + model.input_shape)
    np.testing.assert_allclose(forward(pruned, x).value, forward(masked, x).value, rtol=0, atol=1e-9)


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.75])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_a_pruned_preset_shares_no_state_with_the_original(preset, ratio):
    model, rng = _trained(preset)
    before = {k: v.tobytes() for k, v in model.state_dict().items()}
    pruned = prune_model(model, PruneSpec(ratio=ratio))
    for a in _state_arrays(pruned):
        assert not any(np.shares_memory(a, b) for b in _state_arrays(model))

    _train_steps(pruned, rng, 1)
    after = model.state_dict()
    assert before.keys() == after.keys()
    assert all(after[k].tobytes() == before[k] for k in before)


def _ulps_around(x, n):
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 2.0))
    return below[:0:-1] + above


def test_every_accepted_ratio_leaves_a_neuron_in_every_layer_width():
    threshold = 1.0 - FLOOR_SLACK  # the accepted/rejected boundary lies within an ulp or two
    accepted = []
    for r in _ulps_around(threshold, 2000):
        try:
            PruneSpec(ratio=r)
        except ContractError:
            with pytest.raises(ContractError):  # it would empty a one-neuron layer
                keep_indices(np.ones((1, 1)), r)
        else:
            accepted.append(r)
    assert 0 < len(accepted) < 4001
    # keep_indices drops floor(r * F + slack), which grows with r, so the
    # largest accepted ratio leaves the fewest neurons at every width
    widest = max(accepted)
    for f in range(1, 4097):
        assert keep_indices(np.ones((f, 1)), widest).size >= 1
    for f in range(1, 9):
        for r in accepted:
            assert keep_indices(np.ones((f, 1)), r).size >= 1


TINY_CNN = """
[experiment]
seeds = 3

[data]
num_classes = 3
dim = 16
train_size = 120
test_size = 30

[model]
preset = cnn-small

[training]
epochs = 3
batch_size = 16

[pruning]
ratio = 0.5
"""


def test_a_pruned_checkpoint_reloads_into_a_pruned_preset(tmp_path):
    path = tmp_path / "cnn.ini"
    path.write_text(TINY_CNN)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out), "--mode", "pruning", "--quiet"]) == 0
    (checkpoint,) = out.glob("checkpoint_*_3.qreg")
    (run_csv,) = out.glob("run_*_3.csv")

    cfg = load_config(path)
    model = prune_model(build_model(cfg, 3, 0.0), cfg.prune)
    model.load_state_dict(read_container(checkpoint))
    _, test_acc, _, _ = evaluate(model, build_datasets(cfg, 3, 0.0)[2])
    last = list(csv.DictReader(run_csv.open()))[-1]
    assert fmt(test_acc) == last["test_acc"]
