"""Per-run training records and their CSV serialization.

CSV schema, one row per epoch, numbers at 6 significant digits, final line
newline-terminated:

    epoch,train_loss,val_loss,train_acc,val_acc,test_acc

Multi-task runs append per-task F1 columns and their average:

    ...,f1_t0,...,f1_t{T-1},f1_avg

train_loss is the mean optimized data term over the epoch's minibatches
(smoothed targets when label smoothing is on; the weight-decay penalty is
never included). val_loss/val_acc/test_acc are eval-mode metrics on hard
labels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ContractError


def fmt(v: float) -> str:
    return f"{v:.6g}"


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` whole or not at all: every output file goes through here.

    The bytes go to a temp file beside `path`, which then replaces it in one
    os.replace; if anything fails first, the temp file is removed and `path`
    keeps its old contents (or stays absent).
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


def write_rows(path, header: list[str], rows: list[list[str]]) -> None:
    """Write one CSV file: every record and summary CSV goes through here."""
    write_atomic(path, csv_text(header, rows).encode())


# the metric columns of an epoch row, in CSV order
METRICS = ("train_loss", "val_loss", "train_acc", "val_acc", "test_acc")


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float
    test_acc: float
    f1: tuple[float, ...] | None = None
    f1_avg: float | None = None

    def metrics(self) -> dict[str, float]:
        out = {name: getattr(self, name) for name in METRICS}
        if self.f1 is not None:
            for t, v in enumerate(self.f1):
                out[f"f1_t{t}"] = v
            out["f1_avg"] = self.f1_avg
        return out


@dataclass
class RunRecord:
    fingerprint: str
    seed: int
    num_tasks: int = 0
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means "last row"

    def final_row(self) -> EpochRow:
        if not self.rows:
            raise ContractError("run record holds no completed epoch")
        idx = self.best_epoch - 1 if self.best_epoch else len(self.rows) - 1
        return self.rows[idx]

    @property
    def final_test_acc(self) -> float:
        return self.final_row().test_acc

    def header(self) -> list[str]:
        cols = ["epoch", *METRICS]
        if self.num_tasks:
            cols += [f"f1_t{t}" for t in range(self.num_tasks)] + ["f1_avg"]
        return cols

    def cells(self) -> list[list[str]]:
        """One list of CSV cells per epoch row, in header order."""
        out = []
        for row in self.rows:
            line = [str(row.epoch)] + [fmt(getattr(row, name)) for name in METRICS]
            if self.num_tasks:
                if row.f1 is None or len(row.f1) != self.num_tasks:
                    raise ContractError(f"epoch {row.epoch} row lacks {self.num_tasks} F1 values")
                line += [fmt(v) for v in row.f1] + [fmt(row.f1_avg)]
            out.append(line)
        return out

    def to_csv_text(self) -> str:
        return csv_text(self.header(), self.cells())

    def write_csv(self, path) -> None:
        write_rows(path, self.header(), self.cells())
