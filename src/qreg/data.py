"""Datasets, synthetic generators, label-noise injection.

A Dataset is features plus labels: features [N, D] or [N, C, H, W] float64;
labels either [N] integer class ids (single-task, with num_classes set) or
[N, T] binary task indicators (multi-task, with num_tasks set).

Label noise follows a fixed protocol: exactly round(s * N) examples are
selected uniformly without replacement; single-task labels are re-annotated
uniformly over all C classes (so the effective flip rate is s * (1 - 1/C)),
multi-task labels are redrawn as T independent fair coin flips per selected
example. Noise is injected after splitting and only on the training split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DataError


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int = 0
    num_tasks: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim not in (2, 4):
            raise ContractError(f"features must be [N, D] or [N, C, H, W], got {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if (self.num_classes > 0) == (self.num_tasks > 0):
            raise ContractError("exactly one of num_classes, num_tasks must be positive")
        self.labels = np.asarray(self.labels)
        if self.num_classes:
            if self.labels.ndim != 1:
                raise ContractError(f"single-task labels must be [N], got {self.labels.shape}")
            self.labels = self.labels.astype(np.int64, copy=False)
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
                raise DataError(
                    f"labels must lie in [0, {self.num_classes}), got range "
                    f"[{self.labels.min()}, {self.labels.max()}]"
                )
        else:
            if self.labels.ndim != 2 or self.labels.shape[1] != self.num_tasks:
                raise ContractError(
                    f"multi-task labels must be [N, {self.num_tasks}], got {self.labels.shape}"
                )
            self.labels = self.labels.astype(np.int64, copy=False)
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 1):
                raise DataError("multi-task labels must be 0 or 1")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ContractError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} label rows"
            )
        if self.features.shape[0] < 1:
            raise ContractError("dataset must hold at least one example")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def is_multitask(self) -> bool:
        return self.num_tasks > 0

    def subset(self, idx: np.ndarray) -> "Dataset":
        return replace(self, features=self.features[idx].copy(), labels=self.labels[idx].copy())


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption fraction s in [0, 1] and the rng seed for the injection."""

    fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ContractError(f"noise fraction must lie in [0, 1], got {self.fraction}")


def inject_noise(ds: Dataset, spec: NoiseSpec, exclude_original: bool = False):
    """Return (noisy dataset, sorted array of selected indices).

    Selects exactly round(s * N) indices without replacement. Single-task
    re-annotation is uniform over all classes including the original, so a
    selected example keeps its label with probability 1/C; pass
    exclude_original=True to force every selected label to change
    (sensitivity analysis only). Unselected labels are bitwise unchanged.
    """
    k = int(round(spec.fraction * ds.n))
    rng = np.random.default_rng(spec.seed)
    idx = rng.choice(ds.n, size=k, replace=False) if k else np.empty(0, dtype=np.int64)
    labels = ds.labels.copy()
    if ds.is_multitask:
        labels[idx] = rng.integers(0, 2, size=(k, ds.num_tasks))
    elif exclude_original:
        shift = rng.integers(1, ds.num_classes, size=k)
        labels[idx] = (labels[idx] + shift) % ds.num_classes
    else:
        labels[idx] = rng.integers(0, ds.num_classes, size=k)
    return replace(ds, labels=labels), np.sort(idx)


def split(ds: Dataset, val_fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Seeded random split into (rest, held-out) with |held-out| = round(f * N)."""
    if not 0.0 < val_fraction < 1.0:
        raise ContractError(f"split fraction must lie in (0, 1), got {val_fraction}")
    return split_count(ds, int(round(val_fraction * ds.n)), seed)


def split_count(ds: Dataset, count: int, seed) -> tuple[Dataset, Dataset]:
    """Seeded random split into (rest, held-out) with exactly `count` held out."""
    rest, held = split_indices(ds.n, count, seed)
    return ds.subset(rest), ds.subset(held)


def split_indices(n: int, count: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """The rows split_count(ds, count, seed) puts in (rest, held-out), for ds.n = n.

    Both index arrays are sorted, so a gather by them keeps the row order.
    """
    if not 0 < count < n:
        raise ContractError(f"held-out count must lie in (0, {n}), got {count}")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[count:]), np.sort(perm[:count])


def synth_blobs(num_classes: int, per_class: int, dim: int, separation: float, seed) -> Dataset:
    """Gaussian blobs with equidistant class means.

    Means sit at the vertices of a regular simplex (every pair exactly
    `separation` apart), randomly rotated; per-class covariance is the
    identity. separation 0 collapses all classes onto one Gaussian.
    """
    if num_classes < 2:
        raise ContractError(f"need at least 2 classes, got {num_classes}")
    if dim < num_classes:
        raise ContractError(f"dim must be >= num_classes for equidistant means, got {dim} < {num_classes}")
    if per_class < 1:
        raise ContractError(f"per_class must be >= 1, got {per_class}")
    if separation < 0.0:
        raise ContractError(f"separation must be >= 0, got {separation}")
    rng = np.random.default_rng(seed)
    means = np.zeros((num_classes, dim))
    means[:, :num_classes] = np.eye(num_classes) * (separation / np.sqrt(2.0))
    means -= means.mean(axis=0)
    # seeded random rotation; sign-fixing the QR makes it unique
    raw = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    q *= np.sign(np.diag(r))
    means = means @ q.T
    labels = np.repeat(np.arange(num_classes), per_class)
    features = means[labels] + rng.standard_normal((labels.size, dim))
    order = rng.permutation(labels.size)
    return Dataset(features[order], labels[order], num_classes=num_classes)


def synth_multitask(num_tasks: int, n: int, dim: int, seed) -> Dataset:
    """Gaussian features with T linear threshold tasks of varied prevalence.

    Each task draws a unit normal direction and a prior in [0.15, 0.5]; its
    label is 1 where the projection exceeds that prior's empirical quantile,
    so the positive rate matches the prior up to quantile granularity.
    """
    if num_tasks < 1:
        raise ContractError(f"need at least 1 task, got {num_tasks}")
    if n < 4:
        raise ContractError(f"need at least 4 examples, got {n}")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, dim))
    directions = rng.standard_normal((num_tasks, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    priors = rng.uniform(0.15, 0.5, size=num_tasks)
    scores = features @ directions.T
    thresholds = np.array(
        [np.quantile(scores[:, t], 1.0 - priors[t], method="higher") for t in range(num_tasks)]
    )
    labels = (scores > thresholds[None, :]).astype(np.int64)
    return Dataset(features, labels, num_tasks=num_tasks)
