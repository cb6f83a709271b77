"""Loss value and gradient checks against closed-form and FD oracles."""

import math

import numpy as np
import pytest
from gradcheck import fd_grad, rel_err

from qreg import tensor as T
from qreg.errors import ContractError
from qreg.losses import binary_ce_loss, cross_entropy_loss, one_hot, softmax


def test_uniform_logits_give_log_c():
    # identical logits mean every class has probability 1/C, so CE is ln C
    logits = T.constant(np.zeros((8, 10)))
    targets = one_hot(np.arange(8) % 10, 10)
    loss = cross_entropy_loss(logits, targets)
    assert abs(float(loss.value) - math.log(10.0)) < 1e-12
    assert abs(float(loss.value) - 2.302585) < 1e-6


def test_cross_entropy_gradient_closed_form_and_fd():
    rng = np.random.default_rng(10)
    z = rng.uniform(-2, 2, size=(6, 5))
    t = one_hot(rng.integers(0, 5, size=6), 5)
    node = T.parameter(z)
    loss = cross_entropy_loss(node, t)
    T.backward(loss)
    np.testing.assert_allclose(node.grad, (softmax(z) - t) / 6, rtol=1e-12)

    def f(za):
        m = za.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(za - m).sum(axis=1))
        return float((lse - (za * t).sum(axis=1)).mean())

    fd = fd_grad(f, [z], 0)
    assert rel_err(node.grad, fd) < 1e-4


def test_cross_entropy_accepts_smoothed_targets():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((4, 3))
    t = one_hot(np.array([0, 1, 2, 0]), 3)
    t = 0.9 * t + 0.1 / 3
    loss = cross_entropy_loss(T.constant(z), t)
    assert np.isfinite(loss.value)


def test_cross_entropy_rejects_bad_targets():
    z = T.constant(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        cross_entropy_loss(z, np.array([[0.5, 0.4, 0.2], [1.0, 0.0, 0.0]]))
    with pytest.raises(ContractError):
        cross_entropy_loss(z, np.array([[1.5, -0.5, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ContractError):
        cross_entropy_loss(z, np.zeros((2, 4)))


def test_cross_entropy_stable_for_huge_logits():
    z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = cross_entropy_loss(T.constant(z), t)
    assert np.isfinite(loss.value) and float(loss.value) < 1e-6


def test_binary_ce_at_zero_logit_and_half_target():
    loss = binary_ce_loss(T.constant(np.zeros((1, 1))), np.array([[0.5]]))
    assert abs(float(loss.value) - math.log(2.0)) < 1e-12


def test_binary_ce_matches_two_class_cross_entropy():
    # BCE(z, y) must equal CE on logits [z, 0] with targets [y, 1-y]
    rng = np.random.default_rng(12)
    z = rng.uniform(-3, 3, size=(20, 1))
    y = rng.integers(0, 2, size=(20, 1)).astype(float)
    bce = float(binary_ce_loss(T.constant(z), y).value)
    logits2 = np.concatenate([z, np.zeros_like(z)], axis=1)
    targets2 = np.concatenate([y, 1.0 - y], axis=1)
    ce = float(cross_entropy_loss(T.constant(logits2), targets2).value)
    assert abs(bce - ce) < 1e-9


def test_binary_ce_label_flip_symmetry():
    rng = np.random.default_rng(13)
    z = rng.uniform(-4, 4, size=(10, 6))
    y = rng.integers(0, 2, size=(10, 6)).astype(float)
    a = float(binary_ce_loss(T.constant(z), y).value)
    b = float(binary_ce_loss(T.constant(-z), 1.0 - y).value)
    assert abs(a - b) < 1e-9


def test_binary_ce_gradient_closed_form_and_fd():
    rng = np.random.default_rng(14)
    z = rng.uniform(-2, 2, size=(5, 4))
    y = rng.integers(0, 2, size=(5, 4)).astype(float)
    node = T.parameter(z)
    T.backward(binary_ce_loss(node, y))
    sig = 1.0 / (1.0 + np.exp(-z))
    np.testing.assert_allclose(node.grad, (sig - y) / z.size, rtol=1e-10)

    def f(za):
        return float((np.maximum(za, 0) - za * y + np.log1p(np.exp(-np.abs(za)))).mean())

    assert rel_err(node.grad, fd_grad(f, [z], 0)) < 1e-4


def test_binary_ce_stable_for_huge_logits():
    z = np.array([[800.0, -800.0]])
    y = np.array([[1.0, 0.0]])
    loss = binary_ce_loss(T.constant(z), y)
    assert np.isfinite(loss.value) and float(loss.value) < 1e-6


def test_binary_ce_rejects_out_of_range_targets():
    with pytest.raises(ContractError):
        binary_ce_loss(T.constant(np.zeros((1, 2))), np.array([[0.0, 1.2]]))


def test_one_hot_basic_and_errors():
    np.testing.assert_array_equal(
        one_hot(np.array([2, 0]), 3), [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    )
    with pytest.raises(ContractError):
        one_hot(np.array([3]), 3)
    with pytest.raises(ContractError):
        one_hot(np.array([-1]), 3)


@pytest.mark.parametrize("kind", ["softmax", "sigmoid"])
def test_losses_build_probabilities_only_when_backpropagated(kind, monkeypatch):
    import qreg.losses

    calls = []
    name = "softmax" if kind == "softmax" else "sigmoid_value"
    real = getattr(qreg.losses, name)
    monkeypatch.setattr(qreg.losses, name, lambda z: calls.append(z) or real(z))
    logits = T.parameter(np.random.default_rng(0).standard_normal((6, 3)))
    if kind == "softmax":
        loss = cross_entropy_loss(logits, one_hot(np.array([0, 1, 2, 0, 1, 2]), 3))
    else:
        loss = binary_ce_loss(logits, np.eye(6, 3))
    assert calls == []  # evaluate reads only the value
    T.backward(loss)
    assert len(calls) == 1
