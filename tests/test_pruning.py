"""Structured pruning: selection rules, rebuilt shapes, masked equivalence."""

import numpy as np
import pytest

from qreg import tensor as T
from qreg.errors import ContractError
from qreg.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    Model,
    PerTaskNorm,
    ReLU,
    build_mlp_multitask,
    build_mlp_small,
    forward,
)
from qreg.pruning import PruneSpec, keep_indices, neuron_norms, prune_model
from qreg.quantization import QuantConfig, wrap_model


def test_neuron_norms_rows_and_filters():
    w = np.array([[1.0, -2.0], [0.5, 0.5], [-3.0, 0.0]])
    np.testing.assert_array_equal(neuron_norms(w), [3.0, 1.0, 3.0])
    conv = np.ones((2, 3, 2, 2))
    conv[1] *= -0.5
    np.testing.assert_array_equal(neuron_norms(conv), [12.0, 6.0])


def test_neuron_norms_do_not_depend_on_memory_order():
    # Adam leaves a dense weight in Fortran order; its row sums must keep the bits
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal((256, 32))
        np.testing.assert_array_equal(neuron_norms(np.asfortranarray(w)), neuron_norms(w), strict=True)


def test_keep_indices_drops_smallest_with_stable_ties():
    w = np.array([[1.0], [0.2], [0.2], [3.0]])
    # drop floor(0.5*4) = 2: both 0.2 rows tie; lower indices go first
    np.testing.assert_array_equal(keep_indices(w, 0.5), [0, 3])
    w2 = np.array([[0.5], [0.5], [0.5], [0.5]])
    np.testing.assert_array_equal(keep_indices(w2, 0.5), [2, 3])


def test_keep_indices_highest_criterion():
    w = np.array([[1.0], [0.2], [0.2], [3.0]])
    np.testing.assert_array_equal(keep_indices(w, 0.5, "highest"), [1, 2])


def test_keep_indices_float_floor_robustness():
    w = np.ones((10, 1))
    assert len(keep_indices(w, 0.3)) == 7  # floor(0.3*10) must be 3, not 2


def test_prune_spec_validation():
    with pytest.raises(ContractError):
        PruneSpec(ratio=1.0)
    with pytest.raises(ContractError):
        PruneSpec(ratio=-0.1)
    with pytest.raises(ContractError):
        PruneSpec(ratio=0.5, warmup_epochs=-1)
    with pytest.raises(ContractError):
        PruneSpec(ratio=0.5, criterion="l2")


def test_mlp_small_prune_exact_dimensions():
    rng = np.random.default_rng(50)
    model = build_mlp_small(784, 10, rng)
    pruned = prune_model(model, PruneSpec(ratio=0.75))
    dense = [l for l in pruned.layers if isinstance(l, Dense)]
    assert [(d.in_features, d.out_features) for d in dense] == [(784, 64), (64, 32), (32, 10)]


def test_pruned_equals_zero_masked_forward():
    rng = np.random.default_rng(51)
    model = build_mlp_small(30, 7, rng)
    ratio = 0.75
    keeps = [
        keep_indices(model.layers[0].weight.value, ratio),
        keep_indices(model.layers[2].weight.value, ratio),
    ]
    pruned = prune_model(model, PruneSpec(ratio=ratio))

    # mask the original: zero removed neurons' weights and biases in place
    masked = build_mlp_small(30, 7, np.random.default_rng(0))
    masked.load_state_dict(model.state_dict())
    for layer_idx, keep in zip([0, 2], keeps):
        w = masked.layers[layer_idx].weight.value.copy()
        b = masked.layers[layer_idx].bias.value.copy()
        drop = np.setdiff1d(np.arange(w.shape[0]), keep)
        w[drop] = 0.0
        b[drop] = 0.0
        masked.layers[layer_idx].weight.value = w
        masked.layers[layer_idx].bias.value = b

    x = rng.standard_normal((12, 30))
    np.testing.assert_allclose(
        forward(pruned, x).value, forward(masked, x).value, rtol=0, atol=1e-9
    )


def test_prune_ratio_zero_is_bitwise_identity():
    rng = np.random.default_rng(52)
    model = build_mlp_small(20, 5, rng)
    pruned = prune_model(model, PruneSpec(ratio=0.0))
    x = rng.standard_normal((4, 20))
    assert np.array_equal(forward(pruned, x).value, forward(model, x).value)
    # and the original's parameters are untouched objects
    assert pruned.layers[0].weight is not model.layers[0].weight


def test_prune_leaves_original_model_intact():
    rng = np.random.default_rng(53)
    model = build_mlp_small(16, 4, rng)
    before = {k: v.copy() for k, v in model.state_dict().items()}
    prune_model(model, PruneSpec(ratio=0.5))
    after = model.state_dict()
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_prune_conv_model_without_norm_masked_equivalence():
    rng = np.random.default_rng(54)
    layers = [
        Conv2d(1, 8, 3, rng, stride=1, padding=1),
        ReLU(),
        Conv2d(8, 6, 3, rng, stride=2, padding=1),
        ReLU(),
        Flatten(),
        Dense(6 * 3 * 3, 5, rng),
    ]
    model = Model(layers, "softmax", 5, (1, 6, 6))
    ratio = 0.5
    keep0 = keep_indices(layers[0].weight.value, ratio)
    keep2 = keep_indices(layers[2].weight.value, ratio)
    pruned = prune_model(model, PruneSpec(ratio=ratio))
    convs = [l for l in pruned.layers if isinstance(l, Conv2d)]
    assert convs[0].weight.value.shape == (4, 1, 3, 3)
    assert convs[1].weight.value.shape == (3, 4, 3, 3)
    assert pruned.layers[-1].in_features == 3 * 3 * 3

    for drop_idx, layer in [(np.setdiff1d(np.arange(8), keep0), layers[0]),
                            (np.setdiff1d(np.arange(6), keep2), layers[2])]:
        w = layer.weight.value.copy()
        b = layer.bias.value.copy()
        w[drop_idx] = 0.0
        b[drop_idx] = 0.0
        layer.weight.value = w
        layer.bias.value = b
    x = rng.standard_normal((3, 1, 6, 6))
    np.testing.assert_allclose(forward(pruned, x).value, forward(model, x).value, atol=1e-9)


def test_prune_conv_with_batchnorm_slices_channels():
    rng = np.random.default_rng(55)
    layers = [
        Conv2d(2, 8, 3, rng, padding=1),
        BatchNorm(8),
        ReLU(),
        Flatten(),
        Dense(8 * 4 * 4, 3, rng),
    ]
    model = Model(layers, "softmax", 3, (2, 4, 4))
    model.layers[1].running_mean = np.arange(8.0)
    keep = keep_indices(layers[0].weight.value, 0.75)
    pruned = prune_model(model, PruneSpec(ratio=0.75))
    bn = [l for l in pruned.layers if isinstance(l, BatchNorm)][0]
    assert bn.dim == 2
    np.testing.assert_array_equal(bn.running_mean, np.arange(8.0)[keep])
    out = forward(pruned, rng.standard_normal((2, 2, 4, 4)))
    assert out.shape == (2, 3)


def test_prune_multitask_head_and_norms_untouched():
    rng = np.random.default_rng(56)
    model = build_mlp_multitask(24, 6, rng)
    pruned = prune_model(model, PruneSpec(ratio=0.5))
    dense = [l for l in pruned.layers if isinstance(l, Dense)]
    assert [(d.in_features, d.out_features) for d in dense] == [(24, 64), (64, 32), (32, 6)]
    assert isinstance(pruned.layers[-1], PerTaskNorm)
    assert pruned.layers[-1].num_tasks == 6
    np.testing.assert_array_equal(
        pruned.layers[-1].gamma.value, model.layers[-1].gamma.value
    )


def test_prune_rejects_quantized_models():
    rng = np.random.default_rng(57)
    qmodel = wrap_model(build_mlp_small(10, 3, rng), QuantConfig())
    with pytest.raises(ContractError):
        prune_model(qmodel, PruneSpec(ratio=0.5))
