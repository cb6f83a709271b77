"""Eval-mode forward: bitwise, read-only-input and aliasing checks.

`forward` in eval mode runs each layer's `infer` on raw arrays, each
returning a fresh one. These tests hold it, layer by layer, chunk by chunk
and through `evaluate`, to a reference built from elementary graph ops on
fresh arrays (graph_forward), which shares no kernel with `infer` but the
quantizer and ReLU's maximum, and check that no layer writes into its input.
"""

import numpy as np
import pytest

import qreg.training
from qreg import tensor as T
from qreg.data import Dataset
from qreg.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Model,
    PerTaskNorm,
    ReLU,
    build_cnn_small,
    build_mlp_multitask,
    build_mlp_small,
    forward,
)
from qreg.losses import binary_ce_loss, cross_entropy_loss, one_hot
from qreg.pruning import PruneSpec, prune_model
from qreg.quantization import QuantConfig, QuantizedLayer, fake_quantize, weight_scales, wrap_model
from qreg.training import EVAL_BATCH, Adam, evaluate
from test_layers import _bn_layer, assert_same_int64, composed_batchnorm, composed_dense, legacy_im2col_conv

SIZES = (1, 511, 512, 513, 1800)

PRESETS = {
    "mlp-small": (lambda rng, p: build_mlp_small(12, 5, rng, p), (12,)),
    "cnn-small": (lambda rng, p: build_cnn_small((1, 4, 8), 5, rng, p), (1, 4, 8)),
    "mlp-multitask": (lambda rng, p: build_mlp_multitask(12, 4, rng, p), (12,)),
}

# none, weight_decay, label_smoothing and early_stopping evaluate the plain
# model; the other modes change what is evaluated
VARIANTS = ("none", "dropout", "pruning", "quantization-uncalibrated", "quantization",
            "quantization-keep-bn")


def affine(layer, x, weight):
    """A Dense or Conv2d layer's affine map as composed graph ops (test_layers)."""
    if isinstance(layer, Dense):
        return composed_dense(layer, x, weight)
    conv = legacy_im2col_conv(x.value, weight.value, layer.stride, layer.padding)
    return T.add(T.constant(conv), T.reshape(layer.bias, (1, layer.out_channels, 1, 1)))


def reference_layer(layer, x):
    """One layer's eval-mode output from elementary graph ops on fresh arrays."""
    if isinstance(layer, QuantizedLayer):
        if layer.calibrated:  # before calibration there is no input scale
            scale = layer.act_scale
            x = T.straight_through(x, lambda v: fake_quantize(v, layer.act_bits, scale))
        lam = weight_scales(layer.inner.weight.value)
        w = T.straight_through(layer.inner.weight, lambda v: fake_quantize(v, layer.weight_bits, lam))
        return affine(layer.inner, x, w)
    if isinstance(layer, (Dense, Conv2d)):
        return affine(layer, x, layer.weight)
    if isinstance(layer, BatchNorm):
        return composed_batchnorm(layer, x, False)
    if isinstance(layer, Dropout):
        return x
    return layer.forward(x, None)  # ReLU and Flatten act alike in both modes


def graph_forward(model, x):
    """Eval-mode logits through reference_layer, layer by layer."""
    node = T.constant(x)
    for layer in model.layers:
        node = T.constant(reference_layer(layer, node).value)
    return node


def dataset(preset, n, seed=0):
    rng = np.random.default_rng(seed)
    shape = PRESETS[preset][1]
    x = rng.standard_normal((n,) + shape)
    if preset == "mlp-multitask":
        return Dataset(x, rng.integers(0, 2, (n, 4)), num_tasks=4)
    return Dataset(x, rng.integers(0, 5, n), num_classes=5)


def train_step(model, ds):
    """One train-mode minibatch and Adam step: moves running statistics,
    calibrates activation scales, and leaves Dense weights in Adam's layout."""
    model.train_mode = True
    x, y = ds.features[:64], ds.labels[:64]
    logits = forward(model, x, rng=np.random.default_rng(1))
    if model.head == "sigmoid":
        loss = binary_ce_loss(logits, y.astype(np.float64))
    else:
        loss = cross_entropy_loss(logits, one_hot(y, 5))
    opt = Adam(model.named_parameters(), lr=0.01)
    T.backward(loss)
    opt.step()
    model.train_mode = False
    return model


def make(preset, variant, seed=2):
    build = PRESETS[preset][0]
    rng = np.random.default_rng(seed)
    data = dataset(preset, 64, seed=9)
    if variant == "dropout":
        return train_step(build(rng, 0.3), data)
    if variant == "pruning":
        return train_step(prune_model(train_step(build(rng, 0.0), data), PruneSpec(ratio=0.5)), data)
    if variant.startswith("quantization"):
        keep = variant.endswith("keep-bn") or preset == "mlp-multitask"
        model = wrap_model(build(rng, 0.0), QuantConfig(weight_bits=4, act_bits=4, keep_batchnorm=keep))
        return model if variant.endswith("uncalibrated") else train_step(model, data)
    return train_step(build(rng, 0.0), data)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_eval_path_is_bitwise_the_graph_path(preset, variant, monkeypatch):
    model = make(preset, variant)
    quantized = [l for l in model.layers if isinstance(l, QuantizedLayer)]
    assert all(l.calibrated != variant.endswith("uncalibrated") for l in quantized)
    for n in SIZES:
        ds = dataset(preset, n, seed=n)
        for start in range(0, n, EVAL_BATCH):
            chunk = ds.features[start : start + EVAL_BATCH]
            np.testing.assert_array_equal(forward(model, chunk).value, graph_forward(model, chunk).value,
                                          strict=True)
        got = evaluate(model, ds)
        with monkeypatch.context() as m:
            m.setattr(qreg.training, "forward", graph_forward)
            want = evaluate(model, ds)
        assert got[:2] == want[:2] and got[3] == want[3]
        if want[2] is not None:
            np.testing.assert_array_equal(got[2], want[2], strict=True)


def test_evaluate_alternating_sets_and_models_is_the_graph_path(monkeypatch):
    models = {preset: make(preset, "none") for preset in ("mlp-small", "cnn-small")}
    sets = {preset: [dataset(preset, n, seed=n) for n in (200, 1800, 1000)] for preset in models}
    with monkeypatch.context() as m:
        m.setattr(qreg.training, "forward", graph_forward)
        want = {p: [evaluate(models[p], ds) for ds in sets[p]] for p in models}
    for _ in range(2):
        for i in range(3):  # val, train and test, alternating between the two models
            for preset, model in models.items():
                assert evaluate(model, sets[preset][i]) == want[preset][i]


def test_returned_arrays_alias_no_buffer():
    model = make("cnn-small", "quantization-keep-bn")
    other = make("mlp-small", "none")
    ds = dataset("cnn-small", 700)
    features = ds.features.copy()
    logits = forward(model, ds.features[:300]).value
    kept = logits.copy()
    evaluate(model, ds)
    evaluate(other, dataset("mlp-small", 513))
    forward(model, ds.features[300:])
    np.testing.assert_array_equal(logits, kept, strict=True)
    np.testing.assert_array_equal(ds.features, features, strict=True)  # never written in place


def _with_bias(layer, rng):
    layer.bias.value = rng.standard_normal(layer.bias.shape)
    return layer


def _quantized(inner, calibrated):
    layer = QuantizedLayer(inner, 4, 3, QuantConfig())
    if calibrated:  # a scale under max|x|, so some inputs clip
        layer.act_scale, layer.calibrated = 1.5, 1.0
    return layer


IMAGES = (4, 2, 5, 6)
# every layer kind `infer` runs, with the shape of its input
LAYER_KINDS = {
    "dense": (lambda rng: _with_bias(Dense(6, 4, rng), rng), (5, 6)),
    "conv2d": (lambda rng: _with_bias(Conv2d(2, 3, 3, rng), rng), IMAGES),
    "conv2d-padded": (lambda rng: _with_bias(Conv2d(2, 3, 3, rng, stride=2, padding=1), rng), IMAGES),
    "batchnorm-2d": (lambda rng: _bn_layer(BatchNorm, 6), (5, 6)),
    "batchnorm-4d": (lambda rng: _bn_layer(BatchNorm, 2), IMAGES),
    "pertasknorm": (lambda rng: _bn_layer(PerTaskNorm, 6), (5, 6)),
    "relu": (lambda rng: ReLU(), IMAGES),
    "flatten": (lambda rng: Flatten(), IMAGES),
    "dropout": (lambda rng: Dropout(0.5), (5, 6)),
    "quantized-dense": (lambda rng: _quantized(_with_bias(Dense(6, 4, rng), rng), True), (5, 6)),
    "quantized-dense-uncalibrated": (lambda rng: _quantized(Dense(6, 4, rng), False), (5, 6)),
    "quantized-conv2d": (lambda rng: _quantized(_with_bias(Conv2d(2, 3, 3, rng, padding=1), rng), True), IMAGES),
    "quantized-conv2d-uncalibrated": (lambda rng: _quantized(Conv2d(2, 3, 3, rng, padding=1), False), IMAGES),
}


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
def test_every_layer_infers_the_graph_bits_from_a_read_only_input(kind):
    build, shape = LAYER_KINDS[kind]
    rng = np.random.default_rng(5)
    layer = build(rng)
    x = rng.standard_normal(shape)
    x.flat[0] = -0.0
    x = read_only(x)
    kept = x.copy()
    got = layer.infer(x)  # a write into x would raise
    want = reference_layer(layer, T.constant(kept)).value
    assert_same_int64(got, want)
    assert_same_int64(x, kept)


def test_eval_logits_share_no_memory_with_the_batch():
    views_only = Model([Flatten(), Dropout(0.5)], "softmax", 60, IMAGES[1:])
    for model, shape in ((make("cnn-small", "quantization-keep-bn"), (9, 1, 4, 8)),
                         (make("mlp-multitask", "none"), (9, 12)), (views_only, IMAGES)):
        x = read_only(np.random.default_rng(6).standard_normal(shape))
        logits = forward(model, x).value
        assert not np.may_share_memory(logits, x)
        np.testing.assert_array_equal(logits, graph_forward(model, x).value, strict=True)
