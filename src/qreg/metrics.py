"""Accuracy, per-task F1, and multi-seed aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .records import RunRecord


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy; ties resolve to the lowest class index."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise ContractError(f"bad shapes: logits {logits.shape}, labels {labels.shape}")
    return float((logits.argmax(axis=1) == labels).mean())


def binary_predictions(logits: np.ndarray) -> np.ndarray:
    # logit > 0 is exactly sigmoid(logit) > 0.5, without float equality traps
    return np.asarray(logits) > 0.0


def binary_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean per-bit accuracy of thresholded sigmoid predictions."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape != labels.shape:
        raise ContractError(f"bad shapes: logits {logits.shape}, labels {labels.shape}")
    return float((binary_predictions(logits) == (labels > 0)).mean())


def f1_per_task(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """F1 = 2TP / (2TP + FP + FN) per task column; 0 where the denominator is 0.

    Returns (per-task F1 [T], unweighted average).
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape != labels.shape:
        raise ContractError(f"bad shapes: logits {logits.shape}, labels {labels.shape}")
    preds = binary_predictions(logits)
    truth = labels > 0
    tp = (preds & truth).sum(axis=0).astype(np.float64)
    fp = (preds & ~truth).sum(axis=0).astype(np.float64)
    fn = (~preds & truth).sum(axis=0).astype(np.float64)
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    return f1, float(f1.mean())


def _std(values: np.ndarray) -> float:
    # sample std; a single observation has no spread rather than NaN
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


@dataclass
class RunSummary:
    num_runs: int
    final_mean: dict[str, float]
    final_std: dict[str, float]


def aggregate_runs(records: list[RunRecord]) -> RunSummary:
    """Mean and sample standard deviation of each final metric across same-config runs.

    All records must share a fingerprint (identical resolved config apart
    from the seed). Early-stopped records may have different lengths; each
    contributes its final row (the best epoch when one is set), the one row
    a partial record measures in full.
    """
    if not records:
        raise ContractError("aggregate_runs needs at least one record")
    prints = {r.fingerprint for r in records}
    if len(prints) != 1:
        raise ContractError(f"records mix configurations: fingerprints {sorted(prints)}")
    for r in records:
        if not r.rows:
            raise ContractError(f"record for seed {r.seed} holds no completed epoch")

    metric_names = list(records[0].final_row().metrics())
    final_mean: dict[str, float] = {}
    final_std: dict[str, float] = {}
    finals = {name: np.array([r.final_row().metrics()[name] for r in records]) for name in metric_names}
    for name, vals in finals.items():
        final_mean[name] = float(vals.mean())
        final_std[name] = _std(vals)
    return RunSummary(num_runs=len(records), final_mean=final_mean, final_std=final_std)
