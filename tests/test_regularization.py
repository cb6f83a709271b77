"""Weight decay, dropout, label smoothing, and early stopping checks."""

import numpy as np
import pytest
from gradcheck import fd_grad, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

import qreg.training
from qreg import tensor as T
from qreg.config import ExperimentConfig
from qreg.errors import ContractError
from qreg.experiments import Job, run_job
from qreg.layers import Dropout
from qreg.regularization import (
    EarlyStopper,
    RegularizerConfig,
    dropout_forward,
    smooth_labels,
    weight_decay_loss,
)


def test_weight_decay_value_and_gradient():
    rng = np.random.default_rng(40)
    w1 = T.parameter(rng.standard_normal((4, 3)))
    w2 = T.parameter(rng.standard_normal((2, 4)))
    alpha = 0.01
    loss = weight_decay_loss([w1, w2], alpha)
    want = alpha * ((w1.value**2).sum() + (w2.value**2).sum())
    assert abs(float(loss.value) - want) < 1e-12
    T.backward(loss)
    np.testing.assert_allclose(w1.grad, 2 * alpha * w1.value, rtol=1e-12)
    np.testing.assert_allclose(w2.grad, 2 * alpha * w2.value, rtol=1e-12)

    def f(a, b):
        return float(alpha * ((a**2).sum() + (b**2).sum()))

    assert rel_err(w1.grad, fd_grad(f, [w1.value, w2.value], 0)) < 1e-4


def test_weight_decay_zero_alpha_and_empty_list():
    w = T.parameter(np.ones((2, 2)))
    loss = weight_decay_loss([w], 0.0)
    T.backward(loss)
    np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))
    assert float(weight_decay_loss([], 0.5).value) == 0.0
    with pytest.raises(ContractError):
        weight_decay_loss([w], -1.0)


def composed_weight_decay(weights, alpha):
    """weight_decay_loss as the graph of elementary ops it stands for."""
    total = None
    for w in weights:
        term = T.reduce_sum(T.mul(w, w))
        total = term if total is None else T.add(total, term)
    return T.mul(total, T.constant(alpha))


@pytest.mark.parametrize("order", ["C", "F"])
def test_weight_decay_gradient_is_bitwise_the_composed_graph(order):
    # the decay's gradient reaches W before linear's, as in the composed graph
    rng = np.random.default_rng(42)
    x = rng.standard_normal((6, 5))
    g = rng.standard_normal((6, 3))
    w0 = rng.standard_normal((3, 5))
    k0 = rng.standard_normal((2, 1, 3, 3))
    grads = []
    for penalty in (weight_decay_loss, composed_weight_decay):
        w, k, b = T.parameter(w0), T.parameter(k0), T.parameter(np.zeros(3))
        w.value = np.asarray(w0, order=order)  # Adam leaves Dense weights in Fortran order
        data = T.reduce_sum(T.mul(T.linear(T.constant(x), w, b), T.constant(g)))
        data = T.add(data, T.reduce_sum(T.conv2d(T.constant(np.ones((1, 1, 4, 4))), k, padding=1)))
        T.backward(T.add(data, penalty([w, k], 0.03)))
        grads.append((w.grad, k.grad))
    if order == "F":
        assert grads[0][0].flags.f_contiguous  # no C-order copy on the way
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want, strict=True)


WEIGHT_DECAY_CONFIGS = {
    "mlp-small": dict(num_classes=4, dim=8),
    "cnn-small": dict(preset="cnn-small", num_classes=4, dim=16),
    "mlp-multitask": dict(preset="mlp-multitask", data_kind="multitask", num_tasks=3, dim=8),
}


@pytest.mark.parametrize("preset", sorted(WEIGHT_DECAY_CONFIGS))
def test_weight_decay_runs_are_bitwise_those_of_the_composed_penalty(preset, monkeypatch):
    cfg = ExperimentConfig(train_size=200, test_size=40, epochs=3, **WEIGHT_DECAY_CONFIGS[preset])
    job = Job(cfg=cfg, mode="weight_decay", noise=0.2, seed=3)
    fused = run_job(job)
    monkeypatch.setattr(qreg.training, "weight_decay_loss", composed_weight_decay)
    composed = run_job(job)
    assert fused.record.to_csv_text() == composed.record.to_csv_text()
    assert fused.state.keys() == composed.state.keys()
    for name in fused.state:
        np.testing.assert_array_equal(fused.state[name], composed.state[name], strict=True)


def test_dropout_eval_is_identity_and_p_zero_is_identity():
    x = T.constant(np.ones((3, 3)))
    assert Dropout(0.5).infer(x.value) is x.value
    assert dropout_forward(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_train_mask_values_and_rates():
    rng = np.random.default_rng(41)
    p = 0.3
    x = T.constant(np.ones((400, 250)))
    out = dropout_forward(x, p, rng).value
    vals = np.unique(out)
    assert set(np.round(vals, 12)) <= {0.0, round(1.0 / (1.0 - p), 12)}
    # 1e5 entries: zero fraction within 1% of p, mean within 1% of 1
    assert abs((out == 0.0).mean() - p) < 0.01
    assert abs(out.mean() - 1.0) < 0.01


def test_dropout_expectation_preserved_for_general_inputs():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.5, 2.0, size=(500, 200))
    out = dropout_forward(T.constant(x), 0.2, np.random.default_rng(7)).value
    assert abs(out.mean() / x.mean() - 1.0) < 0.01


def test_dropout_gradient_masks_match_forward():
    rng = np.random.default_rng(43)
    x = T.parameter(np.ones((10, 10)))
    out = dropout_forward(x, 0.4, rng)
    T.backward(T.reduce_sum(out))
    np.testing.assert_array_equal(x.grad, out.value)  # grad is the mask itself


def test_dropout_seed_determinism():
    x = T.constant(np.ones((20, 20)))
    a = dropout_forward(x, 0.5, np.random.default_rng(5)).value
    b = dropout_forward(x, 0.5, np.random.default_rng(5)).value
    assert np.array_equal(a, b)


def test_dropout_rejects_p_one():
    x = T.constant(np.ones((2, 2)))
    with pytest.raises(ContractError):
        dropout_forward(x, 1.0, np.random.default_rng(0))


def test_smooth_labels_binary_worked_example():
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = smooth_labels(y, 0.1, 2)
    np.testing.assert_allclose(out, [[0.05, 0.95], [0.95, 0.05]], atol=1e-15)


def test_smooth_labels_multitask_positive_becomes_095():
    y = np.array([[1.0, 0.0, 1.0]])
    out = smooth_labels(y, 0.1, 2)
    np.testing.assert_allclose(out, [[0.95, 0.05, 0.95]], atol=1e-15)


def test_smooth_labels_one_hot_rows_still_sum_to_one():
    rng = np.random.default_rng(44)
    y = np.eye(10)[rng.integers(0, 10, 50)]
    out = smooth_labels(y, 0.1, 10)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.isclose(out.max(), 0.9 + 0.01) and np.isclose(out.min(), 0.01)


@given(alpha=st.floats(min_value=0.0, max_value=0.99), c=st.integers(2, 20))
@settings(max_examples=100, deadline=None)
def test_smooth_labels_row_sum_property(alpha, c):
    rng = np.random.default_rng(45)
    y = np.eye(c)[rng.integers(0, c, 8)]
    out = smooth_labels(y, alpha, c)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert out.min() >= 0.0


def test_smooth_labels_alpha_zero_is_identity():
    y = np.eye(4)[[0, 2]]
    np.testing.assert_array_equal(smooth_labels(y, 0.0, 4), y)


def test_smooth_labels_contract_errors():
    with pytest.raises(ContractError):
        smooth_labels(np.array([[0.5, 0.5]]), 0.1, 2)
    with pytest.raises(ContractError):
        smooth_labels(np.eye(3), 1.0, 3)
    with pytest.raises(ContractError):
        smooth_labels(np.array([[1.0, 1.0, 0.0]]), 0.1, 3)  # not one-hot
    with pytest.raises(ContractError):
        smooth_labels(np.eye(3), 0.1, 1)


def test_early_stopper_worked_sequence():
    # losses [1.0, 0.9, 0.95, 0.96, 0.97] with patience 2: stop after epoch 4
    stopper = EarlyStopper(patience=2, metric="val_loss")
    decisions = [stopper.step(v) for v in [1.0, 0.9, 0.95, 0.96]]
    assert decisions == [False, False, False, True]
    assert stopper.best_epoch == 2


def test_early_stopper_patience_zero_stops_immediately():
    stopper = EarlyStopper(patience=0)
    assert not stopper.step(1.0)
    assert stopper.step(1.0)  # first non-improving epoch stops


def test_early_stopper_equal_value_is_not_improvement():
    stopper = EarlyStopper(patience=1)
    assert not stopper.step(0.5)
    assert stopper.step(0.5)


def test_early_stopper_accuracy_direction():
    stopper = EarlyStopper(patience=1, metric="val_accuracy")
    assert not stopper.step(0.7)
    assert not stopper.step(0.8)
    assert stopper.step(0.75)
    assert stopper.best_epoch == 2


def test_early_stopper_streak_resets_on_improvement():
    stopper = EarlyStopper(patience=3)
    outs = [stopper.step(v) for v in [1.0, 1.1, 0.9, 1.0, 1.05, 0.8]]
    assert outs == [False, False, False, False, False, False]
    assert stopper.best_epoch == 6
    # two bad epochs never reach patience 3; a third in a row would
    assert not stopper.step(0.9)
    assert not stopper.step(0.9)
    assert stopper.step(0.9)


def test_regularizer_config_validation():
    RegularizerConfig()  # defaults are valid
    with pytest.raises(ContractError):
        RegularizerConfig(dropout_p=1.0)
    with pytest.raises(ContractError):
        RegularizerConfig(weight_decay=-0.1)
    with pytest.raises(ContractError):
        RegularizerConfig(early_stop_metric="train_loss")
    with pytest.raises(ContractError):
        EarlyStopper(patience=-1)
