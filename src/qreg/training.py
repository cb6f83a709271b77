"""Adam optimizer and the single-regularizer training loop.

train() runs minibatch Adam on one model under exactly one regularization
mode. The modes are mutually exclusive by design; comparing them head to head
is the whole point of the harness:

    none             plain training
    weight_decay     adds alpha_w * sum ||W||^2 over dense/conv weights
    dropout          expects the model to carry dropout layers (the builders
                     insert them when a rate is requested)
    label_smoothing  blends targets toward uniform before the loss
    early_stopping   patience-based stop on a validation metric, restoring
                     the best epoch's parameters
    pruning          one-shot structured pruning after a warmup, then
                     fine-tuning (the optimizer state restarts: the old
                     moments refer to removed coordinates)
    quantization     fake-quantized forward with straight-through gradients

An early_stopping run's rows are a prefix of the `none` run's rows at the
same seed, so replay_early_stopping derives it from them without training.
always_early_stop adds the early-stopping protocol on top of any mode (the
multi-task table protocol). When pruning fires while early stopping is
active, the stopper and its best-parameter snapshot reset at the pruning
boundary: pre-pruning snapshots have incompatible shapes, and the comparison
of record lengths stays meaningful because rows keep accumulating.

Randomness: the per-epoch shuffle stream and the dropout stream are spawned
from the run seed with distinct spawn keys, so runs are reproducible and the
streams never collide. Dataset noise uses its own NoiseSpec seed upstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, TrainingError
from .layers import Model, forward
from .losses import binary_ce_loss, cross_entropy_loss, one_hot
from .metrics import accuracy, binary_accuracy, f1_per_task
from .pruning import PruneSpec, prune_model
from .quantization import QuantConfig, wrap_model
from .records import EpochRow, RunRecord
from .regularization import EarlyStopper, RegularizerConfig, smooth_labels, weight_decay_loss
from .tensor import Node

MODES = (
    "none",
    "weight_decay",
    "dropout",
    "label_smoothing",
    "early_stopping",
    "pruning",
    "quantization",
)

EVAL_BATCH = 512


class Adam(object):
    """Adam with bias correction; moments start at zero.

    The update is elementwise (Kingma & Ba, arXiv:1412.6980), so each step
    runs it once over every parameter concatenated into one vector, which is
    bit for bit the per-parameter update. The moments m and v are flat
    vectors in parameter order, and each 2-D parameter (a Dense weight) sits
    in them transposed: that is the memory order of the gradient
    `tensor.linear` returns, (x.T @ g).T, so gathering it is a view. Each
    `p.value` is rebound to its slice of a fresh result vector, a 2-D one as
    the transposed view (Fortran order), which `linear` reads without
    copying. The next step starts from that vector while every `p.value` is
    still the view this object bound; values are never written in place, so
    it holds their bits. A value rebound in between (load_state_dict) makes
    the step gather the values afresh, so the rebound one is updated. The
    moment and update arithmetic runs in buffers this object reuses; no
    value ever points into them.
    """

    def __init__(self, params: list[tuple[str, Node]], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0.0:
            raise ContractError(f"learning rate must be >= 0, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ContractError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if eps <= 0.0:
            raise ContractError(f"eps must be > 0, got {eps}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.bounds = [0, *itertools.accumulate(p.value.size for _, p in self.params)]
        size = self.bounds[-1]
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._g = np.empty(size)
        self._a = np.empty(size)
        self._b = np.empty(size)
        self._values = None  # the vector the last step bound the values to
        self._bound = []     # those values, in parameter order

    def step(self) -> None:
        """Apply one update from the gradients currently on the parameters."""
        self.t += 1
        if not self.params:
            return
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        g = np.concatenate([np.zeros(p.value.size) if p._grad is None else _flat(p._grad)
                            for _, p in self.params], out=self._g)
        # g . g is finite unless g holds a NaN or inf, or its squares overflow
        # (vdot, unlike g @ g, raises no numpy overflow warning for the last)
        if not math.isfinite(np.vdot(g, g)):
            for name, p in self.params:
                if p._grad is not None and not np.all(np.isfinite(p._grad)):
                    raise TrainingError(f"non-finite gradient for parameter '{name}'")
        values = self._values
        if values is None or any(p.value is not b for (_, p), b in zip(self.params, self._bound)):
            values = np.concatenate([_flat(p.value) for _, p in self.params])
        m, v, a, b = self.m, self.v, self._a, self._b
        # m = beta1 * m + (1 - beta1) * g, and v alike with g * g
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1.0 - self.beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - self.beta2, out=a)
        np.multiply(v, self.beta2, out=v)
        np.add(v, a, out=v)
        # new = values - lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, c1, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.multiply(a, self.lr, out=a)
        np.divide(a, b, out=a)
        new = self._values = np.subtract(values, a)
        for (_, p), lo, hi in zip(self.params, self.bounds[:-1], self.bounds[1:]):
            shape = p.value.shape
            if len(shape) == 2:
                p.value = new[lo:hi].reshape(shape[::-1]).T
            else:
                p.value = new[lo:hi].reshape(shape)
        self._bound = [p.value for _, p in self.params]


def _flat(a: np.ndarray) -> np.ndarray:
    """A parameter-shaped array in Adam's flat order: transposed if 2-D."""
    return (a.T if a.ndim == 2 else a).reshape(-1)


@dataclass
class TrainSettings:
    mode: str = "none"
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    reg: RegularizerConfig = field(default_factory=RegularizerConfig)
    quant: QuantConfig | None = None
    prune: PruneSpec | None = None
    always_early_stop: bool = False
    seed: int = 0
    fingerprint: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"unknown mode '{self.mode}', expected one of {MODES}", "mode")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}", "epochs")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}", "batch_size")
        if not self.learning_rate > 0.0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}", "learning_rate")
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ContractError(f"{name} must lie in [0, 1), got {beta}", name)
        if not self.adam_eps > 0.0:
            raise ContractError(f"adam_eps must be > 0, got {self.adam_eps}", "adam_eps")
        if self.mode == "quantization" and self.quant is None:
            raise ContractError("quantization mode needs a QuantConfig")
        if self.mode == "pruning" and self.prune is None:
            raise ContractError("pruning mode needs a PruneSpec")


@dataclass
class TrainResult:
    model: Model
    record: RunRecord


def eval_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """The model's eval-mode logits for every row of `features`, which is only read.

    Runs `forward` on EVAL_BATCH rows at a time, each chunk through fresh
    arrays, and copies its logits into one array for the set.
    """
    was_training = model.train_mode
    model.train_mode = False
    n = features.shape[0]
    logits = np.empty((n, model.out_dim))
    for start in range(0, n, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, n)
        logits[start:stop] = forward(model, features[start:stop]).value
    model.train_mode = was_training
    return logits


def evaluate(model: Model, ds) -> tuple[float, float, np.ndarray | None, float | None]:
    """Eval-mode loss and metrics: (loss, accuracy, per-task F1, F1 average).

    The logits come from eval_logits. train calls this on the validation
    and test sets only: of the training set it records the accuracy alone.
    """
    logits = eval_logits(model, ds.features)
    node = T.constant(logits)
    if ds.is_multitask:
        loss = float(binary_ce_loss(node, ds.labels.astype(np.float64)).value)
        f1, f1_avg = f1_per_task(logits, ds.labels)
        return loss, binary_accuracy(logits, ds.labels), f1, f1_avg
    loss = float(cross_entropy_loss(node, one_hot(ds.labels, ds.num_classes)).value)
    return loss, accuracy(logits, ds.labels), None, None


def stop_metric(row: EpochRow, metric: str) -> float:
    """The value of `row` that an EarlyStopper on `metric` monitors."""
    return row.val_loss if metric == "val_loss" else row.val_acc


def _targets(ds, settings: TrainSettings) -> np.ndarray:
    if ds.is_multitask:
        y, classes = ds.labels.astype(np.float64), 2
    else:
        y, classes = one_hot(ds.labels, ds.num_classes), ds.num_classes
    if settings.mode == "label_smoothing":
        y = smooth_labels(y, settings.reg.label_smoothing, classes)
    return y


def train(model: Model, train_ds, val_ds, test_ds, settings: TrainSettings) -> TrainResult:
    """Optimize the model for settings.epochs; returns the final model and record.

    The returned model is the object to keep using: quantization wraps and
    pruning rebuilds, so it may differ from the argument. On divergence
    (non-finite loss, gradients, quantized activations or metrics) raises
    TrainingError whose .record holds the rows of all fully completed epochs;
    the model is left in eval mode either way.
    """
    if train_ds.is_multitask != (model.head == "sigmoid"):
        raise ContractError("dataset task structure does not match the model head")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(settings.seed, spawn_key=(1,)))
    dropout_rng = np.random.default_rng(np.random.SeedSequence(settings.seed, spawn_key=(2,)))

    if settings.mode == "quantization":
        model = wrap_model(model, settings.quant)
    prune_epoch = None
    if settings.mode == "pruning":
        # clamp so at least one fine-tuning epoch remains
        prune_epoch = min(settings.prune.warmup_epochs, settings.epochs - 1) + 1
    stopping = settings.mode == "early_stopping" or settings.always_early_stop

    record = RunRecord(
        fingerprint=settings.fingerprint,
        seed=settings.seed,
        num_tasks=train_ds.num_tasks,
    )
    targets = _targets(train_ds, settings)
    loss_fn = binary_ce_loss if train_ds.is_multitask else cross_entropy_loss
    score = binary_accuracy if train_ds.is_multitask else accuracy
    decayed = model.weight_nodes() if settings.mode == "weight_decay" else None

    try:
        for epoch in range(1, settings.epochs + 1):
            if epoch == prune_epoch:
                model = prune_model(model, settings.prune)
            if epoch in (1, prune_epoch):
                # a fresh optimizer and stopper: after pruning, the old moments and
                # the best-parameter snapshot refer to removed coordinates
                opt = Adam(model.named_parameters(), settings.learning_rate,
                           settings.beta1, settings.beta2, settings.adam_eps)
                stopper = EarlyStopper(settings.reg.early_stop_patience,
                                       settings.reg.early_stop_metric) if stopping else None
                best_state = None
                stopper_offset = len(record.rows)  # rows recorded before this stopper came alive
            model.train_mode = True
            perm = shuffle_rng.permutation(train_ds.n)
            batch_losses = []
            for start in range(0, train_ds.n, settings.batch_size):
                ids = perm[start : start + settings.batch_size]
                try:
                    logits = forward(model, train_ds.features[ids], rng=dropout_rng)
                except TrainingError as e:  # a quantizer met non-finite activations
                    raise TrainingError(f"activations diverged in epoch {epoch}") from e
                data_loss = loss_fn(logits, targets[ids])
                if not np.isfinite(data_loss.value):
                    raise TrainingError(f"loss diverged in epoch {epoch}")
                loss = data_loss
                if decayed is not None:
                    loss = T.add(loss, weight_decay_loss(decayed, settings.reg.weight_decay))
                for _, p in opt.params:
                    p.zero_grad()
                T.backward(loss)
                opt.step()
                batch_losses.append(float(data_loss.value))

            train_loss = float(np.mean(batch_losses))
            val_loss, val_acc, _, _ = evaluate(model, val_ds)
            train_acc = score(eval_logits(model, train_ds.features), train_ds.labels)
            test_loss, test_acc, f1, f1_avg = evaluate(model, test_ds)
            row = EpochRow(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                train_acc=train_acc,
                val_acc=val_acc,
                test_acc=test_acc,
                f1=tuple(f1) if f1 is not None else None,
                f1_avg=f1_avg,
            )
            if not all(np.isfinite(v) for v in row.metrics().values()):
                raise TrainingError(f"metrics diverged in epoch {epoch}")
            record.rows.append(row)

            if stopper is not None:
                stop = stopper.step(stop_metric(row, stopper.metric))
                if stopper.best_epoch == stopper.epoch:
                    best_state = model.state_dict()
                if stop:
                    break
    except TrainingError as e:
        e.record = record
        raise
    finally:
        model.train_mode = False

    if stopper is not None and best_state is not None:
        model.load_state_dict(best_state)
        record.best_epoch = stopper_offset + stopper.best_epoch
    else:
        record.best_epoch = len(record.rows)
    return TrainResult(model=model, record=record)


def replay_early_stopping(rows: list[EpochRow], reg: RegularizerConfig) -> tuple[int, int, bool]:
    """What the early_stopping run does, read off the rows of its `none` twin.

    The two modes differ only in the stopper: data, initial weights, shuffle
    and dropout streams, targets and loss are the same, so the early_stopping
    run's rows are a prefix of the `none` run's rows, bit for bit. Returns
    (rows it keeps, its best_epoch, whether it stopped within `rows`). When
    it does not stop, it ran every one of `rows`, and it also shares any
    failure that ended the `none` run after them.
    """
    stopper = EarlyStopper(reg.early_stop_patience, reg.early_stop_metric)
    for row in rows:
        if stopper.step(stop_metric(row, stopper.metric)):
            return stopper.epoch, stopper.best_epoch, True
    return len(rows), stopper.best_epoch, False
