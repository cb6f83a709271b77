"""Quantizer properties, scale tracking, STE wiring, and model wrapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreg import tensor as T
from qreg.errors import ContractError, TrainingError
from qreg.layers import (
    BatchNorm,
    Dense,
    PerTaskNorm,
    build_mlp_multitask,
    build_mlp_small,
    forward,
)
from qreg.losses import cross_entropy_loss, one_hot
from qreg.quantization import (
    QuantConfig,
    QuantizedLayer,
    act_scale_update,
    fake_quantize,
    round_half_away,
    weight_scales,
    wrap_model,
)

BITS = st.sampled_from([2, 3, 4, 6, 8, 12, 16])
SCALES = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
XS = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def test_worked_example_midrange_value():
    # 0.3 * 127 = 38.1 rounds to 38, giving 38/127
    got = fake_quantize(np.array(0.3), 8, 1.0)
    assert abs(float(got) - 38.0 / 127.0) < 1e-15
    assert abs(float(got) - 0.2992126) < 1e-7


def test_worked_example_clamped_value():
    got = fake_quantize(np.array(2.5), 8, 1.0)
    assert float(got) == 1.0


def test_round_half_away_from_zero():
    y = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 2.6])
    np.testing.assert_array_equal(round_half_away(y), [1.0, -1.0, 2.0, -2.0, 2.0, -2.0, 3.0])


@given(x=XS, bits=BITS, lam=SCALES)
@settings(max_examples=300, deadline=None)
def test_round_trip_error_bound(x, bits, lam):
    q = 2 ** (bits - 1) - 1
    fq = float(fake_quantize(np.array(x), bits, lam))
    if abs(x) <= lam:
        # half a grid spacing, with float-rounding slack
        assert abs(fq - x) <= lam / (2 * q) + 1e-12 * lam
    assert abs(fq) <= lam * (1 + 1e-12)


@given(a=XS, b=XS, bits=BITS, lam=SCALES)
@settings(max_examples=300, deadline=None)
def test_monotone_in_x(a, b, bits, lam):
    lo, hi = min(a, b), max(a, b)
    flo = float(fake_quantize(np.array(lo), bits, lam))
    fhi = float(fake_quantize(np.array(hi), bits, lam))
    assert flo <= fhi


@given(x=XS, bits=BITS, lam=SCALES)
@settings(max_examples=300, deadline=None)
def test_odd_symmetry_bitwise(x, bits, lam):
    plus = fake_quantize(np.array([x]), bits, lam)
    minus = fake_quantize(np.array([-x]), bits, lam)
    assert np.array_equal(minus, -plus)


@given(x=XS, bits=BITS, lam=SCALES)
@settings(max_examples=200, deadline=None)
def test_idempotent_on_grid(x, bits, lam):
    once = fake_quantize(np.array([x]), bits, lam)
    twice = fake_quantize(once, bits, lam)
    assert np.array_equal(once, twice)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_grid_cardinality(bits):
    rng = np.random.default_rng(21)
    lam = 2.0
    x = rng.uniform(-3 * lam, 3 * lam, size=20000)
    vals = np.unique(fake_quantize(x, bits, lam))
    assert len(vals) <= 2**bits - 1
    q = 2 ** (bits - 1) - 1
    ints = vals * q / lam
    np.testing.assert_allclose(ints, np.round(ints), atol=1e-9)


def test_per_channel_scale_matches_row_loop():
    rng = np.random.default_rng(22)
    w = rng.standard_normal((6, 9))
    lam = weight_scales(w)
    np.testing.assert_allclose(lam, np.abs(w).max(axis=1), rtol=1e-15)
    got = fake_quantize(w, 4, lam)
    for i in range(6):
        row = fake_quantize(w[i : i + 1].ravel(), 4, float(lam[i]))
        np.testing.assert_array_equal(got[i], row)


def test_weight_scales_floor_for_dead_channels():
    w = np.zeros((3, 4))
    w[0, 0] = 2.0
    lam = weight_scales(w)
    assert lam[0] == 2.0 and lam[1] == 1e-8 and lam[2] == 1e-8
    # quantizing an all-zero channel must stay zero, not NaN
    assert np.all(fake_quantize(w, 4, lam) [1] == 0.0)


def test_weight_scales_conv_kernels():
    rng = np.random.default_rng(23)
    w = rng.standard_normal((5, 3, 3, 3))
    np.testing.assert_allclose(weight_scales(w), np.abs(w).reshape(5, -1).max(axis=1))


def test_fake_quantize_errors():
    with pytest.raises(ContractError):
        fake_quantize(np.ones(3), 1, 1.0)
    with pytest.raises(ContractError):
        fake_quantize(np.ones(3), 17, 1.0)
    with pytest.raises(ContractError):
        fake_quantize(np.ones(3), 8, 0.0)
    with pytest.raises(ContractError):
        fake_quantize(np.ones(3), 8, -1.0)
    with pytest.raises(ContractError):
        fake_quantize(np.ones((3, 2)), 8, np.array([1.0, 1.0]))  # wrong channel count


def formula_fake_quantize(x, bits, scale):
    """fake_quantize's former formula: clip(round_half_away(x * q / scale), -q, q) * scale / q."""
    q = 2 ** (bits - 1) - 1
    lam = np.asarray(scale, dtype=np.float64)
    if lam.ndim:
        lam = lam.reshape((-1,) + (1,) * (x.ndim - 1))
    y = np.array(x * (q / lam))  # an array even when x is 0-d
    return np.asarray(np.clip(round_half_away(y, out=np.empty_like(y)), -q, q) * (lam / q))


def assert_same_int64(got, want):
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                                  np.ascontiguousarray(want).view(np.int64), strict=True)


@pytest.mark.parametrize("bits", [2, 4, 8, 16])
def test_fake_quantize_is_bitwise_the_clipped_rounding(bits):
    q = 2 ** (bits - 1) - 1
    k = np.arange(-q - 2, q + 3, dtype=np.float64)
    quiet_nan = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0]
    special = [0.0, -0.0, np.nan, -np.nan, quiet_nan, -quiet_nan, np.inf, -np.inf, 1e300, -1e300]
    for lam in (1.0, 0.37, 3.0):
        ties = (k + 0.5) * (lam / q)  # y lands on or next to k + 0.5
        x = np.concatenate([ties, -ties, k * (lam / q), special,
                            np.random.default_rng(bits).standard_normal(200) * lam])
        assert_same_int64(fake_quantize(x, bits, lam), formula_fake_quantize(x, bits, lam))
        for v in (0.3 * lam, -0.0, np.nan, (q + 0.5) * lam):  # 0-d inputs stay 0-d
            got = fake_quantize(np.array(v), bits, lam)
            assert got.shape == ()
            assert_same_int64(got, formula_fake_quantize(np.array(v), bits, lam))

    w = np.random.default_rng(bits).standard_normal((6, 5)) * 2.0
    w[0, :3] = (-0.0, np.nan, 0.0)
    lam = np.array([0.5, 1.0, 2.0, 3.0, 0.25, 1.5])
    for weight in (w, np.asfortranarray(w)):
        want = formula_fake_quantize(weight, bits, lam)
        got = fake_quantize(weight, bits, lam)
        assert got.flags.f_contiguous == weight.flags.f_contiguous  # keeps the layout
        assert_same_int64(got, want)


def test_fake_quantize_accepts_an_empty_per_channel_scale():
    assert fake_quantize(np.ones((0, 3)), 4, np.ones(0)).shape == (0, 3)
    for bad in ([1.0, np.nan], [1.0, np.inf], [1.0, -np.inf], [1.0, 0.0], np.nan):
        with pytest.raises(ContractError, match="positive and finite"):
            fake_quantize(np.ones((2, 3)), 4, np.array(bad))


def test_act_scale_first_batch_calibrates_then_ema():
    _, qlayer = quantized_dense(np.random.default_rng(0))
    act_scale_update(qlayer, np.array([0.5, -2.0]), 0.99)
    assert qlayer.calibrated and qlayer.act_scale == 2.0
    act_scale_update(qlayer, np.array([4.0]), 0.99)
    assert abs(qlayer.act_scale - 2.02) < 1e-12  # 0.99*2 + 0.01*4


def test_act_scale_update_rejects_bad_momentum():
    _, qlayer = quantized_dense(np.random.default_rng(0))
    with pytest.raises(ContractError):
        act_scale_update(qlayer, np.ones(2), 1.0)
    with pytest.raises(ContractError):
        act_scale_update(qlayer, np.ones(2), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_act_scale_update_rejects_a_non_finite_batch(bad):
    _, qlayer = quantized_dense(np.random.default_rng(0))
    for pos in (0, 2):
        batch = np.array([0.5, -2.0, 1.0])
        batch[pos] = bad
        with pytest.raises(TrainingError, match="non-finite"):
            act_scale_update(qlayer, batch, 0.99)
        assert not qlayer.calibrated and qlayer.act_scale == 0.0


def test_act_scale_peak_is_the_largest_magnitude():
    _, qlayer = quantized_dense(np.random.default_rng(0))
    act_scale_update(qlayer, np.array([[0.5, 3.0], [-2.0, 1.0]]), 0.99)
    assert qlayer.act_scale == 3.0
    _, qlayer = quantized_dense(np.random.default_rng(0))
    act_scale_update(qlayer, np.array([-0.0, 0.0]), 0.99)
    assert qlayer.act_scale == 1e-8  # floored


def quantized_dense(rng, in_dim=6, out_dim=4, wbits=4, abits=4, **cfg_kw):
    layer = Dense(in_dim, out_dim, rng)
    cfg = QuantConfig(weight_bits=wbits, act_bits=abits, **cfg_kw)
    return layer, QuantizedLayer(layer, wbits, abits, cfg)


def test_wrapper_train_forward_matches_manual_composition():
    rng = np.random.default_rng(24)
    layer, qlayer = quantized_dense(rng)
    x = rng.uniform(-1.5, 1.5, size=(8, 6))
    out = qlayer.forward(T.constant(x), None).value

    lam_x = np.abs(x).max()  # first batch calibrates to the raw input peak
    qx = fake_quantize(x, 4, lam_x)
    qw = fake_quantize(layer.weight.value, 4, weight_scales(layer.weight.value))
    np.testing.assert_array_equal(out, qx @ qw.T + layer.bias.value)


def test_wrapper_updates_scale_before_quantizing_input():
    rng = np.random.default_rng(25)
    layer, qlayer = quantized_dense(rng)
    first = np.ones((2, 6))
    qlayer.forward(T.constant(first), None)
    assert qlayer.act_scale == 1.0
    second = np.full((2, 6), 3.0)
    out = qlayer.forward(T.constant(second), None).value
    lam = 0.99 * 1.0 + 0.01 * 3.0
    assert abs(qlayer.act_scale - lam) < 1e-12
    qx = fake_quantize(second, 4, lam)
    qw = fake_quantize(layer.weight.value, 4, weight_scales(layer.weight.value))
    np.testing.assert_array_equal(out, qx @ qw.T + layer.bias.value)


def test_eval_before_calibration_skips_input_quantization():
    rng = np.random.default_rng(26)
    layer, qlayer = quantized_dense(rng)
    x = rng.uniform(-1, 1, size=(3, 6))
    out = qlayer.infer(x)
    qw = fake_quantize(layer.weight.value, 4, weight_scales(layer.weight.value))
    np.testing.assert_array_equal(out, x @ qw.T + layer.bias.value)
    assert not qlayer.calibrated


def test_eval_mode_is_deterministic_and_frozen():
    rng = np.random.default_rng(27)
    _, qlayer = quantized_dense(rng)
    qlayer.forward(T.constant(rng.uniform(-1, 1, (4, 6))), None)
    lam = qlayer.act_scale
    x = rng.uniform(-1, 1, (5, 6))
    a = qlayer.infer(x)
    b = qlayer.infer(x)
    assert np.array_equal(a, b)
    assert qlayer.act_scale == lam  # eval never moves the EMA


def test_ste_gradients_bitwise_through_quantizers():
    rng = np.random.default_rng(29)
    layer, qlayer = quantized_dense(rng)
    x = T.parameter(rng.uniform(-1, 1, (8, 6)))
    out = qlayer.forward(x, None)
    weights = rng.standard_normal(out.shape)
    T.backward(T.reduce_sum(T.mul(out, T.constant(weights))))
    for raw, quant in qlayer.last_ste_pairs:
        assert quant._grad is not None
        assert np.array_equal(raw.grad, quant.grad)


def test_ste_bitwise_on_three_layer_quantized_mlp():
    rng = np.random.default_rng(30)
    model = build_mlp_small(12, 5, rng)
    qmodel = wrap_model(model, QuantConfig(weight_bits=4, act_bits=4))
    qmodel.train_mode = True
    x = T.parameter(rng.uniform(-1, 1, (16, 12)))
    labels = rng.integers(0, 5, 16)
    logits = forward(qmodel, x)
    loss = cross_entropy_loss(logits, one_hot(labels, 5))
    T.backward(loss)
    pairs = [p for l in qmodel.layers if isinstance(l, QuantizedLayer) for p in l.last_ste_pairs]
    assert len(pairs) == 6  # three weight pairs, three input pairs
    for raw, quant in pairs:
        assert quant._grad is not None and np.any(quant.grad != 0.0)
        # identity backward rule: upstream gradient arrives bit for bit
        assert np.array_equal(raw.grad, quant.grad)


def test_wrap_model_boundary_bits_assignment():
    rng = np.random.default_rng(31)
    model = build_mlp_small(12, 5, rng)
    qmodel = wrap_model(model, QuantConfig(weight_bits=4, act_bits=4, boundary_bits=8))
    qlayers = [l for l in qmodel.layers if isinstance(l, QuantizedLayer)]
    assert [(l.weight_bits, l.act_bits) for l in qlayers] == [(8, 8), (4, 4), (8, 8)]


def test_wrap_model_drops_batchnorm_only_when_enabled():
    rng = np.random.default_rng(32)

    def tiny_bn_model():
        from qreg.layers import Model, ReLU

        layers = [Dense(6, 8, rng), BatchNorm(8), ReLU(), Dense(8, 3, rng)]
        return Model(layers, "softmax", 3, (6,))

    on = wrap_model(tiny_bn_model(), QuantConfig())
    assert not any(isinstance(l, BatchNorm) for l in on.layers)
    kept = wrap_model(tiny_bn_model(), QuantConfig(keep_batchnorm=True))
    assert any(isinstance(l, BatchNorm) for l in kept.layers)


def test_wrap_model_keeps_per_task_norms():
    rng = np.random.default_rng(33)
    model = build_mlp_multitask(10, 4, rng)
    qmodel = wrap_model(model, QuantConfig())
    assert isinstance(qmodel.layers[-1], PerTaskNorm)


def test_quant_config_validation():
    with pytest.raises(ContractError):
        QuantConfig(weight_bits=1)
    with pytest.raises(ContractError):
        QuantConfig(act_bits=17)
    with pytest.raises(ContractError):
        QuantConfig(ema_momentum=1.0)
    with pytest.raises(ContractError):
        QuantizedLayer(BatchNorm(3), 4, 4, QuantConfig())


def test_quantized_layer_state_in_state_dict():
    rng = np.random.default_rng(35)
    model = wrap_model(build_mlp_small(8, 3, rng), QuantConfig())
    model.train_mode = True
    forward(model, rng.uniform(-1, 1, (4, 8)))
    model.train_mode = False
    state = model.state_dict()
    assert any(k.endswith("act_scale") for k in state)

    clone = wrap_model(build_mlp_small(8, 3, np.random.default_rng(99)), QuantConfig())
    clone.load_state_dict(state)
    x = rng.uniform(-1, 1, (4, 8))
    np.testing.assert_array_equal(forward(model, x).value, forward(clone, x).value)


def test_quantized_dense_weight_reaches_linear_without_a_copy():
    from qreg.training import Adam

    model = wrap_model(build_mlp_small(8, 3, np.random.default_rng(0)), QuantConfig())
    model.train_mode = True
    opt = Adam(model.named_parameters(), lr=1e-2)
    x = np.random.default_rng(1).standard_normal((16, 8))
    y = one_hot(np.arange(16) % 3, 3)
    for _ in range(2):
        for _, p in opt.params:
            p.zero_grad()
        T.backward(cross_entropy_loss(forward(model, x), y))
        opt.step()
    forward(model, x)
    quantized = [l for l in model.layers if isinstance(l, QuantizedLayer)]
    for layer in quantized:
        w, qw = layer.last_ste_pairs[-1]
        # Adam leaves the weight in Fortran order and its quantized image keeps it
        assert w.value.flags.f_contiguous and qw.value.flags.f_contiguous
        assert np.shares_memory(np.ascontiguousarray(qw.value.T), qw.value)
        want = fake_quantize(np.ascontiguousarray(w.value), layer.weight_bits, weight_scales(w.value))
        np.testing.assert_array_equal(qw.value, want, strict=True)
