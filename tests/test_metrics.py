import numpy as np
import pytest

from qreg.errors import ContractError
from qreg.metrics import (
    RunSummary,
    accuracy,
    aggregate_runs,
    binary_accuracy,
    binary_predictions,
    f1_per_task,
)
from qreg.records import EpochRow, RunRecord


def test_accuracy_basic():
    logits = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 5.0], [1.0, 0.5, 0.0]])
    labels = np.array([0, 1, 2, 2])
    assert accuracy(logits, labels) == 0.75


def test_accuracy_ties_resolve_to_lowest_index():
    logits = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert accuracy(logits, np.array([0, 0])) == 1.0
    assert accuracy(logits, np.array([1, 1])) == 0.0


def test_accuracy_rejects_bad_shapes():
    with pytest.raises(ContractError):
        accuracy(np.zeros((3, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ContractError):
        accuracy(np.zeros(3), np.zeros(3, dtype=int))


def test_binary_predictions_threshold_at_zero():
    logits = np.array([[-0.1, 0.0, 1e-12, 3.0]])
    # zero logit means sigmoid exactly 0.5: not a positive call
    assert binary_predictions(logits).tolist() == [[False, False, True, True]]


def test_binary_accuracy_counts_bits():
    logits = np.array([[1.0, -1.0], [1.0, 1.0]])
    labels = np.array([[1, 0], [0, 1]])
    assert binary_accuracy(logits, labels) == 0.75


def test_f1_perfect_and_zero_denominator():
    labels = np.array([[1, 0], [1, 0], [0, 0]])
    logits = np.where(labels > 0, 2.0, -2.0)
    f1, avg = f1_per_task(logits, labels)
    # task 1 has no positives anywhere: denominator 0 scores 0 by convention
    assert f1.tolist() == [1.0, 0.0]
    assert avg == 0.5


def test_f1_matches_confusion_matrix_recount():
    rng = np.random.default_rng(11)
    labels = (rng.random((200, 12)) < 0.3).astype(np.int64)
    logits = rng.normal(size=(200, 12))
    f1, avg = f1_per_task(logits, labels)
    preds = logits > 0
    want = []
    for t in range(12):
        tp = fp = fn = 0
        for i in range(200):
            p, y = bool(preds[i, t]), bool(labels[i, t])
            if p and y:
                tp += 1
            elif p and not y:
                fp += 1
            elif not p and y:
                fn += 1
        denom = 2 * tp + fp + fn
        want.append(2 * tp / denom if denom else 0.0)
    np.testing.assert_allclose(f1, want, rtol=0, atol=1e-15)
    assert avg == pytest.approx(np.mean(want), abs=1e-15)


def _record(fingerprint, seed, test_accs, val_losses=None):
    rows = []
    for i, acc in enumerate(test_accs):
        vl = val_losses[i] if val_losses else 0.5
        rows.append(
            EpochRow(epoch=i + 1, train_loss=1.0, val_loss=vl,
                     train_acc=0.9, val_acc=0.8, test_acc=acc)
        )
    return RunRecord(fingerprint=fingerprint, seed=seed, rows=rows)


def test_aggregate_final_mean_and_sample_std():
    records = [_record("abc", 0, [0.7, 0.8]), _record("abc", 1, [0.7, 0.9])]
    summary = aggregate_runs(records)
    assert summary.num_runs == 2
    assert summary.final_mean["test_acc"] == pytest.approx(0.85, abs=1e-12)
    assert summary.final_std["test_acc"] == pytest.approx(np.sqrt(0.005), abs=1e-12)


def test_aggregate_single_record_has_zero_std():
    summary = aggregate_runs([_record("abc", 0, [0.8])])
    assert summary.final_std["test_acc"] == 0.0
    assert summary.final_mean["test_acc"] == 0.8


def test_aggregate_staggered_lengths_per_epoch():
    # record B stopped after 2 epochs; finals still cover both records
    a = _record("abc", 0, [0.5, 0.6, 0.7])
    b = _record("abc", 1, [0.4, 0.8])
    summary = aggregate_runs([a, b])
    assert summary.final_mean["test_acc"] == pytest.approx(0.75)


def test_aggregate_respects_best_epoch_for_finals():
    rec = _record("abc", 0, [0.5, 0.9, 0.6])
    rec.best_epoch = 2
    summary = aggregate_runs([rec])
    assert summary.final_mean["test_acc"] == 0.9


def test_aggregate_rejects_mixed_fingerprints_and_empty():
    with pytest.raises(ContractError):
        aggregate_runs([_record("abc", 0, [0.5]), _record("xyz", 1, [0.5])])
    with pytest.raises(ContractError):
        aggregate_runs([])
    with pytest.raises(ContractError):
        aggregate_runs([RunRecord(fingerprint="abc", seed=0)])


def test_aggregate_multitask_includes_f1_average():
    rows = [
        EpochRow(epoch=1, train_loss=1.0, val_loss=0.5, train_acc=0.9,
                 val_acc=0.8, test_acc=0.7, f1=(0.5, 0.7), f1_avg=0.6)
    ]
    rec = RunRecord(fingerprint="abc", seed=0, num_tasks=2, rows=rows)
    summary = aggregate_runs([rec])
    assert isinstance(summary, RunSummary)
    assert summary.final_mean["f1_avg"] == 0.6
