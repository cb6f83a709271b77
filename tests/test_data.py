"""Dataset construction, noise protocol, splits, generators."""

import numpy as np
import pytest

from qreg.data import (
    Dataset,
    NoiseSpec,
    inject_noise,
    split,
    split_count,
    synth_blobs,
    synth_multitask,
)
from qreg.errors import ContractError, DataError


def toy_single(n=10, c=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), rng.integers(0, c, n), num_classes=c)


def lstsq_probe_accuracy(train, test):
    """Least-squares linear probe, an oracle independent of the training engine."""
    xtr = np.hstack([train.features, np.ones((train.n, 1))])
    xte = np.hstack([test.features, np.ones((test.n, 1))])
    onehot = np.eye(train.num_classes)[train.labels]
    w, *_ = np.linalg.lstsq(xtr, onehot, rcond=None)
    return float(((xte @ w).argmax(axis=1) == test.labels).mean())


def test_dataset_validation():
    with pytest.raises(ContractError):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int))  # neither C nor T
    with pytest.raises(ContractError):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), num_classes=2, num_tasks=2)
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=3)
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.array([[0, 2], [1, 0]]), num_tasks=2)
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]), num_classes=1)
    with pytest.raises(ContractError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), num_classes=2)


@pytest.mark.parametrize("bad", [2, -1])
def test_multitask_labels_outside_0_1_raise(bad):
    labels = np.array([[0, 1], [1, 0], [0, 0]])
    assert Dataset(np.zeros((3, 2)), labels, num_tasks=2).labels.tolist() == labels.tolist()
    labels[1, 1] = bad
    with pytest.raises(DataError, match=r"^multi-task labels must be 0 or 1$"):
        Dataset(np.zeros((3, 2)), labels, num_tasks=2)


def test_noise_exact_count_and_unselected_untouched():
    ds = toy_single(n=50, c=5)
    noisy, idx = inject_noise(ds, NoiseSpec(fraction=0.3, seed=3))
    assert len(idx) == round(0.3 * 50) == 15
    assert np.array_equal(idx, np.sort(idx)) and len(np.unique(idx)) == 15
    untouched = np.setdiff1d(np.arange(50), idx)
    assert np.array_equal(noisy.labels[untouched], ds.labels[untouched])
    assert noisy.num_classes == ds.num_classes


def test_noise_changed_fraction_statistics():
    # uniform re-annotation over all C keeps the original with prob 1/C, so
    # the changed fraction concentrates on s*(1 - 1/C) = 0.36 for s=0.4, C=10
    n = 100_000
    rng = np.random.default_rng(60)
    ds = Dataset(rng.standard_normal((n, 2)), rng.integers(0, 10, n), num_classes=10)
    noisy, idx = inject_noise(ds, NoiseSpec(fraction=0.4, seed=61))
    assert len(idx) == 40_000
    changed = (noisy.labels != ds.labels).mean()
    assert 0.35 <= changed <= 0.37


def test_noise_exclude_original_changes_every_selected_label():
    ds = toy_single(n=40, c=4, seed=2)
    noisy, idx = inject_noise(ds, NoiseSpec(fraction=0.5, seed=5), exclude_original=True)
    assert np.all(noisy.labels[idx] != ds.labels[idx])
    assert noisy.labels.min() >= 0 and noisy.labels.max() < 4


def test_noise_multitask_flips_all_bits_fairly():
    n = 20_000
    rng = np.random.default_rng(62)
    ds = Dataset(rng.standard_normal((n, 2)), np.ones((n, 4), dtype=int), num_tasks=4)
    noisy, idx = inject_noise(ds, NoiseSpec(fraction=0.5, seed=63))
    assert len(idx) == 10_000
    redrawn = noisy.labels[idx]
    # every bit is a fair coin, so each task's mean sits near 0.5
    np.testing.assert_allclose(redrawn.mean(axis=0), 0.5, atol=0.02)
    untouched = np.setdiff1d(np.arange(n), idx)
    assert np.all(noisy.labels[untouched] == 1)


def test_noise_zero_and_full_fraction():
    ds = toy_single(n=30)
    same, idx = inject_noise(ds, NoiseSpec(fraction=0.0, seed=1))
    assert len(idx) == 0 and np.array_equal(same.labels, ds.labels)
    _, idx_all = inject_noise(ds, NoiseSpec(fraction=1.0, seed=1))
    assert len(idx_all) == 30
    with pytest.raises(ContractError):
        NoiseSpec(fraction=1.5, seed=0)


def test_noise_seed_determinism():
    ds = toy_single(n=100, c=6, seed=4)
    a, ia = inject_noise(ds, NoiseSpec(0.4, seed=9))
    b, ib = inject_noise(ds, NoiseSpec(0.4, seed=9))
    assert np.array_equal(a.labels, b.labels) and np.array_equal(ia, ib)
    c, _ = inject_noise(ds, NoiseSpec(0.4, seed=10))
    assert not np.array_equal(a.labels, c.labels)


def test_split_sizes_and_disjointness():
    ds = toy_single(n=100, c=3, seed=5)
    train, val = split(ds, 0.1, seed=11)
    assert val.n == 10 and train.n == 90
    # the two halves partition the original rows
    all_rows = np.vstack([train.features, val.features])
    assert np.array_equal(
        np.sort(all_rows.ravel()), np.sort(ds.features.ravel())
    )
    t2, v2 = split(ds, 0.1, seed=11)
    assert np.array_equal(train.features, t2.features)
    t3, _ = split(ds, 0.1, seed=12)
    assert not np.array_equal(train.features, t3.features)


def test_split_count_exact():
    ds = toy_single(n=37)
    rest, held = split_count(ds, 12, seed=0)
    assert held.n == 12 and rest.n == 25
    with pytest.raises(ContractError):
        split_count(ds, 0, seed=0)
    with pytest.raises(ContractError):
        split(ds, 0.0, seed=0)


def test_blobs_equidistant_means_and_probe():
    c, d = 5, 8
    ds = synth_blobs(c, per_class=200, dim=d, separation=10.0, seed=70)
    assert ds.n == 1000 and ds.features.shape == (1000, d)
    assert np.array_equal(np.sort(np.unique(ds.labels)), np.arange(c))
    # recover empirical means; pairwise distances concentrate near `separation`
    means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(c)])
    for i in range(c):
        for j in range(i + 1, c):
            assert abs(np.linalg.norm(means[i] - means[j]) - 10.0) < 1.0
    train, test = split(ds, 0.3, seed=71)
    assert lstsq_probe_accuracy(train, test) >= 0.99


def test_blobs_zero_separation_is_chance_level():
    ds = synth_blobs(4, per_class=300, dim=6, separation=0.0, seed=72)
    train, test = split(ds, 0.25, seed=73)
    acc = lstsq_probe_accuracy(train, test)
    assert abs(acc - 0.25) < 0.08  # chance for 4 classes


def test_blobs_determinism_and_validation():
    a = synth_blobs(3, 10, 5, 2.0, seed=1)
    b = synth_blobs(3, 10, 5, 2.0, seed=1)
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    with pytest.raises(ContractError):
        synth_blobs(10, 5, 4, 1.0, seed=0)  # dim < classes
    with pytest.raises(ContractError):
        synth_blobs(3, 5, 4, -1.0, seed=0)


def test_multitask_priors_and_probe():
    n, t = 10_000, 6
    ds = synth_multitask(t, n, 16, seed=74)
    assert ds.labels.shape == (n, t)
    rates = ds.labels.mean(axis=0)
    assert np.all(rates >= 0.13) and np.all(rates <= 0.52)
    # labels are linear thresholds of the features, so a per-task linear
    # probe with a tuned cut must reach 95% on held-out rows
    half = n // 2
    for task in range(t):
        y = ds.labels[:, task] * 2.0 - 1.0
        xtr = np.hstack([ds.features[:half], np.ones((half, 1))])
        w, *_ = np.linalg.lstsq(xtr, y[:half], rcond=None)
        scores_tr = xtr @ w
        cuts = np.quantile(scores_tr, np.linspace(0.02, 0.98, 49))
        best_cut = cuts[np.argmax([((scores_tr > c) == (y[:half] > 0)).mean() for c in cuts])]
        xte = np.hstack([ds.features[half:], np.ones((n - half, 1))])
        acc = (((xte @ w) > best_cut) == (y[half:] > 0)).mean()
        assert acc >= 0.95, f"task {task}: probe accuracy {acc:.3f}"


def test_multitask_positive_rate_matches_prior_within_two_points():
    ds = synth_multitask(12, 10_000, 32, seed=75)
    rng = np.random.default_rng(75)
    rng.standard_normal((10_000, 32))
    rng.standard_normal((12, 32))
    priors = rng.uniform(0.15, 0.5, size=12)  # replay the generator's draws
    np.testing.assert_allclose(ds.labels.mean(axis=0), priors, atol=0.02)


def test_subset_copies():
    ds = toy_single(n=10)
    sub = ds.subset(np.array([1, 3, 5]))
    sub.features[0, 0] = 999.0
    assert ds.features[1, 0] != 999.0
