"""Classification losses, fused with closed-form gradients.

Both losses are computed in numerically stable form (max-subtraction for the
softmax partition function, the |z| trick for the logistic term) and carry
their exact analytic backward rules, so no overflow-prone intermediate ever
enters the graph. The rules build the softmax or sigmoid themselves, so a
loss that is never backpropagated (evaluate) never computes it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Node, sigmoid_value


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ContractError(f"labels must be 1-d, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(f"labels must lie in [0, {num_classes}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    return np.eye(num_classes)[labels.astype(np.int64)]


def _check_targets(logits: Node, targets) -> np.ndarray:
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.value.shape:
        raise ContractError(f"targets shape {t.shape} vs logits shape {logits.value.shape}")
    if t.shape[0] < 1:
        raise ContractError("need at least one example")
    return t


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_loss(logits: Node, targets) -> Node:
    """Mean softmax cross-entropy; targets are rows of class probabilities.

    Rows must be nonnegative and sum to 1 within 1e-6 (one-hot or smoothed).
    Gradient wrt logits is (softmax(logits) - targets) / N.
    """
    t = _check_targets(logits, targets)
    if t.min() < 0.0:
        raise ContractError("target probabilities must be nonnegative")
    sums = t.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ContractError("each target row must sum to 1 within 1e-6")
    z = logits.value
    n = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    value = (lse - (z * t).sum(axis=1)).mean()

    def rule(g):
        return (g * (softmax(z) - t) / n,)

    return Node(value, (logits,), rule)


def binary_ce_loss(logits: Node, targets) -> Node:
    """Mean binary cross-entropy over all [N, T] logit/target pairs.

    Targets lie in [0, 1] (hard or smoothed). Uses the stable form
    max(z, 0) - z*y + log(1 + exp(-|z|)); gradient wrt logits is
    (sigmoid(logits) - targets) / (N*T).
    """
    t = _check_targets(logits, targets)
    if t.min() < 0.0 or t.max() > 1.0:
        raise ContractError("binary targets must lie in [0, 1]")
    z = logits.value
    count = z.size
    value = (np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()

    def rule(g):
        return (g * (sigmoid_value(z) - t) / count,)

    return Node(value, (logits,), rule)
