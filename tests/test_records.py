import os

import numpy as np
import pytest

from qreg.checkpoint import write_container
from qreg.errors import ContractError
from qreg.experiments import _write_rows
from qreg.records import EpochRow, RunRecord, fmt, write_atomic


def make_row(epoch, **over):
    base = dict(train_loss=1.234567891, val_loss=0.5, train_acc=0.75,
                val_acc=0.7, test_acc=0.65)
    base.update(over)
    return EpochRow(epoch=epoch, **base)


def test_fmt_six_significant_digits():
    assert fmt(0.123456789) == "0.123457"
    assert fmt(1234567.0) == "1.23457e+06"
    assert fmt(1.0) == "1"
    assert fmt(0.25) == "0.25"


def test_csv_header_single_task():
    rec = RunRecord(fingerprint="abc", seed=3, rows=[make_row(1)])
    text = rec.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,train_acc,val_acc,test_acc"
    assert lines[1] == "1,1.23457,0.5,0.75,0.7,0.65"
    assert text.endswith("\n")
    assert len(lines) == 2


def test_csv_header_multitask_appends_f1_columns():
    row = make_row(1, f1=(0.5, 0.25, 1.0), f1_avg=0.5833333)
    rec = RunRecord(fingerprint="abc", seed=0, num_tasks=3, rows=[row])
    lines = rec.to_csv_text().splitlines()
    assert lines[0].endswith("test_acc,f1_t0,f1_t1,f1_t2,f1_avg")
    assert lines[1].endswith("0.5,0.25,1,0.583333")


def test_multitask_row_missing_f1_rejected():
    rec = RunRecord(fingerprint="abc", seed=0, num_tasks=3, rows=[make_row(1)])
    with pytest.raises(ContractError):
        rec.to_csv_text()


def test_a_row_that_was_not_measured_cannot_be_written(tmp_path):
    for unmeasured in (["train_acc"], ["test_acc"], ["train_acc", "test_acc"]):
        partial = make_row(1, **dict.fromkeys(unmeasured))
        assert sorted(partial.metrics()) == sorted({"train_loss", "val_loss", "val_acc",
                                                    "train_acc", "test_acc"} - set(unmeasured))
        rec = RunRecord(fingerprint="abc", seed=0, rows=[partial, make_row(2)])
        with pytest.raises(ContractError, match=f"epoch 1 row did not measure {', '.join(unmeasured)}"):
            rec.write_csv(tmp_path / "run.csv")
        assert not (tmp_path / "run.csv").exists()
    multitask = RunRecord(fingerprint="abc", seed=0, num_tasks=2,
                          rows=[make_row(1, train_acc=None, test_acc=None),
                                make_row(2, f1=(0.5, 1.0), f1_avg=0.75)])
    with pytest.raises(ContractError, match="epoch 1 row did not measure train_acc, test_acc"):
        multitask.cells()


def test_final_row_follows_best_epoch():
    rows = [make_row(1, test_acc=0.1), make_row(2, test_acc=0.9), make_row(3, test_acc=0.2)]
    rec = RunRecord(fingerprint="abc", seed=0, rows=rows)
    assert rec.final_test_acc == 0.2  # best_epoch 0 means the last row
    rec.best_epoch = 2
    assert rec.final_test_acc == 0.9


def test_final_row_requires_rows():
    with pytest.raises(ContractError):
        RunRecord(fingerprint="abc", seed=0).final_row()


def test_write_csv_round_trips_bytes(tmp_path):
    rec = RunRecord(fingerprint="abc", seed=0, rows=[make_row(1), make_row(2)])
    path = tmp_path / "run.csv"
    rec.write_csv(path)
    assert path.read_text() == rec.to_csv_text()
    # parseable by numpy as a sanity check on the numeric block
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (2, 6)


# every writer of an output file, each writing content that depends on i
WRITERS = {
    "run csv": lambda path, i: RunRecord(fingerprint="abc", seed=0, rows=[make_row(1, test_acc=i / 4)]).write_csv(path),
    "summary csv": lambda path, i: _write_rows(path, ["mode", "seed"], [["none", str(i)]]),
    "checkpoint": lambda path, i: write_container(path, {"w": np.full(3, float(i))}),
}


def failing_replace(src, dst):
    raise OSError("no space left on device")


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_fails_before_the_rename_keeps_the_old_file(writer, tmp_path, monkeypatch):
    write, path = WRITERS[writer], tmp_path / "out"
    with monkeypatch.context() as m:
        m.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write(path, 0)
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file
    write(path, 1)
    old = path.read_bytes()
    with monkeypatch.context() as m:
        m.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write(path, 2)
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == old
    write(path, 2)
    assert path.read_bytes() != old


def test_a_write_that_fails_midway_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(TypeError):
        write_atomic(path, "text, not bytes")
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old\n"
