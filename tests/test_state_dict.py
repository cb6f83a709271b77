"""The state dict: its pinned key layout, and bit-exact round trips through a checkpoint."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreg.checkpoint import read_container, write_container
from qreg.errors import DataError, DimensionError
from qreg.layers import build_cnn_small, build_mlp_multitask, forward
from qreg.pruning import PruneSpec, prune_model
from qreg.quantization import QuantConfig, wrap_model
from test_eval import PRESETS, dataset, train_step

# every parameter in layer order, then every buffer in layer order: the
# order of the entries in a checkpoint file
LAYOUTS = {
    "cnn-small quantized": (
        lambda rng: wrap_model(build_cnn_small((1, 4, 8), 5, rng), QuantConfig()),
        "layer0.weight layer0.bias layer2.weight layer2.bias layer5.weight layer5.bias layer7.weight layer7.bias "
        "layer0.act_scale layer0.calibrated layer2.act_scale layer2.calibrated "
        "layer5.act_scale layer5.calibrated layer7.act_scale layer7.calibrated"),
    "cnn-small quantized keep_batchnorm": (
        lambda rng: wrap_model(build_cnn_small((1, 4, 8), 5, rng), QuantConfig(keep_batchnorm=True)),
        "layer0.weight layer0.bias layer1.gamma layer1.beta layer3.weight layer3.bias layer4.gamma layer4.beta "
        "layer7.weight layer7.bias layer9.weight layer9.bias "
        "layer0.act_scale layer0.calibrated layer1.running_mean layer1.running_var "
        "layer3.act_scale layer3.calibrated layer4.running_mean layer4.running_var "
        "layer7.act_scale layer7.calibrated layer9.act_scale layer9.calibrated"),
    "mlp-multitask quantized": (
        lambda rng: wrap_model(build_mlp_multitask(12, 4, rng), QuantConfig()),
        "layer0.weight layer0.bias layer2.weight layer2.bias layer4.weight layer4.bias layer5.gamma layer5.beta "
        "layer0.act_scale layer0.calibrated layer2.act_scale layer2.calibrated "
        "layer4.act_scale layer4.calibrated layer5.running_mean layer5.running_var"),
    "cnn-small pruned": (
        lambda rng: prune_model(build_cnn_small((1, 4, 8), 5, rng), PruneSpec(0.5)),
        "layer0.weight layer0.bias layer1.gamma layer1.beta layer3.weight layer3.bias layer4.gamma layer4.beta "
        "layer7.weight layer7.bias layer9.weight layer9.bias "
        "layer1.running_mean layer1.running_var layer4.running_mean layer4.running_var"),
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_state_dict_keys_are_the_checkpoint_layout(name):
    build, keys = LAYOUTS[name]
    assert list(build(np.random.default_rng(0)).state_dict()) == keys.split()


def test_activation_scale_buffers_are_0d_float64_and_one_train_batch_calibrates_them():
    model = LAYOUTS["cnn-small quantized"][0](np.random.default_rng(0))
    scales = [k for k in model.state_dict() if k.endswith((".act_scale", ".calibrated"))]
    assert len(scales) == 8
    for trained in (False, True):
        if trained:
            train_step(model, dataset("cnn-small", 64))
        state = model.state_dict()
        for k in scales:
            assert state[k].shape == () and state[k].dtype == np.float64, k
            if k.endswith(".calibrated"):
                assert state[k] == float(trained), k
            else:
                assert (state[k] > 0.0) == trained, k


VARIANTS = ("plain", "quantized", "quantized-calibrated", "pruned")


def build(preset, variant, keep_batchnorm, seed):
    model = PRESETS[preset][0](np.random.default_rng(seed), 0.0)
    if variant == "pruned":
        return prune_model(model, PruneSpec(0.5))
    if variant.startswith("quantized"):
        return wrap_model(model, QuantConfig(keep_batchnorm=keep_batchnorm))
    return model


def assert_same_state(got, want):
    assert list(got) == list(want)
    for k in want:
        assert got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=2, derandomize=True, deadline=None)
@given(keep_batchnorm=st.booleans(), seed=st.integers(0, 2**16), pick=st.integers(0, 2**16))
def test_state_dict_round_trips_through_a_checkpoint(tmp_path_factory, preset, variant, keep_batchnorm, seed, pick):
    data = dataset(preset, 64, seed=seed)
    model = build(preset, variant, keep_batchnorm, seed)
    if variant != "quantized":  # moves running statistics and calibrates scales
        train_step(model, data)
    state = model.state_dict()
    path = tmp_path_factory.mktemp("round_trip") / "model.qreg"
    write_container(path, state)
    loaded = build(preset, variant, keep_batchnorm, seed + 1)  # same shapes, other values
    loaded.load_state_dict(read_container(path))
    assert_same_state(loaded.state_dict(), state)
    x = dataset(preset, 32, seed=seed + 2).features
    np.testing.assert_array_equal(forward(loaded, x).value, forward(model, x).value, strict=True)

    # a loaded 0-d buffer must go on exactly as the original's scalar does;
    # train_step leaves its gradients behind, and a loaded model has none
    for p in model.parameters():
        p.zero_grad()
    train_step(model, data)
    train_step(loaded, data)
    assert_same_state(loaded.state_dict(), model.state_dict())
    np.testing.assert_array_equal(forward(loaded, x).value, forward(model, x).value, strict=True)

    key = list(state)[pick % len(state)]
    with pytest.raises(DataError):
        loaded.load_state_dict({k: v for k, v in state.items() if k != key})
    with pytest.raises(DataError):
        loaded.load_state_dict({**state, key + "_extra": state[key]})
    with pytest.raises(DimensionError):
        loaded.load_state_dict({**state, key: np.append(state[key], 0.0)})
