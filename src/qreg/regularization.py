"""Baseline regularizers: weight decay, dropout, label smoothing, early stopping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Node


@dataclass(frozen=True)
class RegularizerConfig:
    weight_decay: float = 0.01
    dropout_p: float = 0.1
    label_smoothing: float = 0.1
    early_stop_patience: int = 5
    early_stop_metric: str = "val_loss"

    def __post_init__(self):
        if not self.weight_decay >= 0.0:
            raise ContractError(f"weight_decay must be >= 0, got {self.weight_decay}", "weight_decay")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ContractError(f"dropout_p must lie in [0, 1), got {self.dropout_p}", "dropout_p")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ContractError(f"label_smoothing must lie in [0, 1), got {self.label_smoothing}",
                                "label_smoothing")
        if self.early_stop_patience < 0:
            raise ContractError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}",
                                "early_stop_patience")
        if self.early_stop_metric not in ("val_loss", "val_accuracy"):
            raise ContractError(
                f"early_stop_metric must be val_loss or val_accuracy, got '{self.early_stop_metric}'",
                "early_stop_metric",
            )


def weight_decay_loss(weights: list[Node], alpha: float) -> Node:
    """alpha times the summed squared entries of the given weight matrices, as one node.

    Callers pass dense/conv weights only; biases and normalization parameters
    stay out of the penalty. Stands for mul(sum of reduce_sum(mul(w, w)),
    alpha). The gradient wrt each W is that graph's: mul(w, w) hands
    (g * alpha) * W to each of its two operands, and they sum to 2*alpha*W
    bit for bit, in W's own memory layout. The value, which nothing reads
    but the graph, sums each W's squares in memory order.
    """
    if alpha < 0.0:
        raise ContractError(f"weight decay coefficient must be >= 0, got {alpha}")
    if not weights:
        return T.constant(0.0)
    total = sum(float(np.dot(v, v)) for v in (w.value.ravel(order="K") for w in weights))

    def rule(g: np.ndarray):
        s = g * alpha
        grads = []
        for w in weights:
            term = s * w.value
            grads.append(np.add(term, term, out=term))
        return grads

    return Node(alpha * total, weights, rule)


def dropout_forward(x: Node, p: float, rng: np.random.Generator | None) -> Node:
    """Train-mode inverted dropout on activations.

    Zeroes each entry with probability p and scales survivors by 1/(1-p), so
    the expected activation is unchanged and eval (layers.Dropout.infer)
    needs no correction. p = 0 returns x untouched and needs no rng.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return T.mul(x, T.constant(mask))


def smooth_labels(y: np.ndarray, alpha: float, num_classes: int) -> np.ndarray:
    """Blend targets toward uniform: (1 - alpha)*y + alpha/num_classes.

    For one-hot rows (single-task) num_classes is C. For a multi-task binary
    matrix each entry is its own two-class problem, so num_classes is 2 and
    a positive label becomes 1 - alpha/2.
    """
    y = np.asarray(y, dtype=np.float64)
    if not 0.0 <= alpha < 1.0:
        raise ContractError(f"smoothing coefficient must lie in [0, 1), got {alpha}")
    if num_classes < 2:
        raise ContractError(f"num_classes must be >= 2, got {num_classes}")
    if y.ndim != 2:
        raise ContractError(f"targets must be 2-d, got shape {y.shape}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ContractError("targets must contain only 0 and 1 before smoothing")
    if num_classes > 2 or y.shape[1] == num_classes:
        sums = y.sum(axis=1)
        if not np.all(sums == 1.0):
            raise ContractError("single-task targets must be one-hot rows")
    return (1.0 - alpha) * y + alpha / num_classes


class EarlyStopper:
    """Track a validation metric; stop after `patience` non-improving epochs.

    An epoch improves only if strictly better than the best so far (lower for
    val_loss, higher for val_accuracy). Patience 0 stops at the first
    non-improving epoch. best_epoch is 1-based.
    """

    def __init__(self, patience: int, metric: str = "val_loss"):
        if patience < 0:
            raise ContractError(f"patience must be >= 0, got {patience}")
        if metric not in ("val_loss", "val_accuracy"):
            raise ContractError(f"unknown early-stop metric '{metric}'")
        self.patience = patience
        self.metric = metric
        self.best_value: float | None = None
        self.best_epoch = 0
        self.epoch = 0
        self.bad_streak = 0

    def _improved(self, value: float) -> bool:
        if self.best_value is None:
            return True
        if self.metric == "val_loss":
            return value < self.best_value
        return value > self.best_value

    def step(self, value: float) -> bool:
        """Record one epoch's metric; return True when training should stop."""
        self.epoch += 1
        if self._improved(value):
            self.best_value = value
            self.best_epoch = self.epoch
            self.bad_streak = 0
            return False
        self.bad_streak += 1
        return self.bad_streak >= max(self.patience, 1)
