"""An end-to-end reference for training.train, written from its documented semantics.

reference_train(model, train_ds, val_ds, test_ds, settings) runs the run that
train() documents on a copy of the model's initial parameters, in a plain
loop that shares none of train()'s machinery:

- the layers are the composed graphs of elementary T.* ops that the fused
  nodes stand for (composed_dense, composed_conv and composed_batchnorm of
  test_layers), in train mode and in eval mode alike;
- Adam is the textbook per-parameter update;
- the quantizer is clip(round_half_away(x * (q / lam)), -q, q) * (lam / q)
  behind T.straight_through, with its own EMA activation scale;
- the pruner slices the L1-lowest output channels itself;
- the stopper is inline;
- eval runs EVAL_BATCH rows at a time through the graph ops, and the
  metrics are computed here.

Besides the T.* graph ops, only the losses (whose closed-form gradients
have their own tests), the batch-norm constants, the TrainSettings, the
datasets and the initial weights come from the engine.
The result is the run's EpochRows, its best_epoch and its final state dict,
named as Model.state_dict names them; the test asserts that each is bit for
bit what train() gives.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace as Layer

import numpy as np
from test_layers import composed_batchnorm, composed_conv, composed_dense

from qreg import tensor as T
from qreg import training
from qreg.layers import BN_EPS, BN_MOMENTUM, BatchNorm, Conv2d, Dense, Dropout, Flatten, PerTaskNorm, ReLU
from qreg.losses import binary_ce_loss, cross_entropy_loss
from qreg.records import EpochRow

AFFINE = ("dense", "conv")
STATE = {  # kind -> (parameter attributes, buffer attributes), in state-dict order
    "dense": (("weight", "bias"), ()),
    "conv": (("weight", "bias"), ()),
    "quant": (("weight", "bias"), ("act_scale", "calibrated")),
    "norm": (("gamma", "beta"), ("running_mean", "running_var")),
    "tasknorm": (("gamma", "beta"), ("running_mean", "running_var")),
}


def _param(value: np.ndarray) -> T.Node:
    return T.parameter(np.array(value, order="C"))


def _norm(kind: str, gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray, var: np.ndarray) -> Layer:
    return Layer(kind=kind, gamma=_param(gamma), beta=_param(beta), running_mean=mean.copy(),
                 running_var=var.copy(), dim=gamma.shape[0], momentum=BN_MOMENTUM, eps=BN_EPS)


def _affine(kind: str, weight: np.ndarray, bias: np.ndarray, like) -> Layer:
    layer = Layer(kind=kind, weight=_param(weight), bias=_param(bias))
    if kind == "conv":
        layer.stride, layer.padding, layer.out_channels = like.stride, like.padding, weight.shape[0]
    return layer


def copy_layers(model) -> list[Layer]:
    """The model's layers as plain records holding copies of their initial state."""
    layers = []
    for l in model.layers:
        if isinstance(l, (Dense, Conv2d)):
            layers.append(_affine("dense" if isinstance(l, Dense) else "conv", l.weight.value, l.bias.value, l))
        elif isinstance(l, BatchNorm):
            kind = "tasknorm" if isinstance(l, PerTaskNorm) else "norm"
            layers.append(_norm(kind, l.gamma.value, l.beta.value, l.running_mean, l.running_var))
        elif isinstance(l, Dropout):
            layers.append(Layer(kind="dropout", p=l.p))
        else:
            assert isinstance(l, (ReLU, Flatten)), l
            layers.append(Layer(kind="relu" if isinstance(l, ReLU) else "flatten"))
    return layers


def fake_quant(x: np.ndarray, bits: int, lam) -> np.ndarray:
    q = 2 ** (bits - 1) - 1
    lam = np.reshape(lam, (-1,) + (1,) * (x.ndim - 1)) if np.ndim(lam) else lam
    y = x * (q / lam)
    rounded = np.copysign(np.floor(np.abs(y) + 0.5), y)  # half away from zero
    return np.clip(rounded, -q, q) * (lam / q)


def channel_scales(w: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(w).reshape(w.shape[0], -1).max(axis=1), 1e-8)


def quantize(layers: list[Layer], qc) -> list[Layer]:
    """Every affine layer quantized, the first and the last at boundary_bits;
    plain batch norms dropped unless keep_batchnorm."""
    affine = [i for i, l in enumerate(layers) if l.kind in AFFINE]
    out = []
    for i, l in enumerate(layers):
        if l.kind in AFFINE:
            edge = i in (affine[0], affine[-1])
            out.append(Layer(kind="quant", inner=l, weight=l.weight, bias=l.bias, momentum=qc.ema_momentum,
                             weight_bits=qc.boundary_bits if edge else qc.weight_bits,
                             act_bits=qc.boundary_bits if edge else qc.act_bits,
                             act_scale=0.0, calibrated=0.0))
        elif l.kind != "norm" or qc.keep_batchnorm:
            out.append(l)
    return out


def prune(layers: list[Layer], spec, in_channels: int) -> list[Layer]:
    """Drop the floor(ratio * F) lowest-L1 output channels of every affine layer but the last,
    chosen from the weights before pruning, and the inputs that read them."""
    affine = [i for i, l in enumerate(layers) if l.kind in AFFINE]
    keeps = {}
    for i in affine[:-1]:
        w = np.ascontiguousarray(layers[i].weight.value)
        norms = np.abs(w).reshape(w.shape[0], -1).sum(axis=1)
        order = np.argsort(norms if spec.criterion == "lowest" else -norms, kind="stable")
        keeps[i] = np.sort(order[math.floor(spec.ratio * w.shape[0] + 1e-9):])
    out, channels, kept = [], in_channels, np.arange(in_channels)
    for i, l in enumerate(layers):
        if l.kind in AFFINE:
            w = l.weight.value
            rows = keeps.get(i, np.arange(w.shape[0]))
            # each input channel owns one block of columns (a kernel, or a flattened map)
            sliced = w.reshape(w.shape[0], channels, -1)[rows][:, kept].reshape((rows.size, -1) + w.shape[2:])
            out.append(_affine(l.kind, sliced, l.bias.value[rows], l))
            channels, kept = w.shape[0], rows
        elif l.kind in ("norm", "tasknorm"):
            out.append(_norm(l.kind, l.gamma.value[kept], l.beta.value[kept], l.running_mean[kept],
                             l.running_var[kept]))
        else:
            out.append(l)
    return out


def _apply(l: Layer, x: T.Node, train_mode: bool, rng) -> T.Node:
    if l.kind == "dense":
        return composed_dense(l, x, l.weight)
    if l.kind == "conv":
        return composed_conv(l, x, l.weight)
    if l.kind in ("norm", "tasknorm"):
        return composed_batchnorm(l, x, train_mode)
    if l.kind == "relu":
        return T.relu(x)
    if l.kind == "flatten":
        return T.reshape(x, (x.shape[0], -1))
    if l.kind == "dropout":
        if not train_mode or l.p == 0.0:
            return x
        return T.mul(x, T.constant((rng.random(x.shape) >= l.p) / (1.0 - l.p)))  # inverted dropout
    if train_mode:  # quant: fold max|x| into the EMA scale, then quantize with the new scale
        peak = max(float(np.abs(x.value).max()), 1e-8)
        l.act_scale = l.momentum * l.act_scale + (1.0 - l.momentum) * peak if l.calibrated else peak
        l.calibrated = 1.0
    if l.calibrated:
        x = T.straight_through(x, functools.partial(fake_quant, bits=l.act_bits, lam=l.act_scale))
    w = T.straight_through(l.weight, functools.partial(fake_quant, bits=l.weight_bits,
                                                       lam=channel_scales(l.weight.value)))
    return (composed_dense if l.inner.kind == "dense" else composed_conv)(l.inner, x, w)


def run(layers: list[Layer], x: np.ndarray, train_mode: bool, rng=None) -> T.Node:
    node = T.constant(x)
    for l in layers:
        node = _apply(l, node, train_mode, rng)
    return node


def evaluate(layers: list[Layer], ds) -> tuple[float, float, tuple | None, float | None]:
    chunk = training.EVAL_BATCH  # read at each call, so a test may shrink it
    logits = np.concatenate([run(layers, ds.features[i:i + chunk], False).value for i in range(0, ds.n, chunk)])
    if not ds.is_multitask:
        loss = cross_entropy_loss(T.constant(logits), np.eye(ds.num_classes)[ds.labels]).value
        return float(loss), float((logits.argmax(axis=1) == ds.labels).mean()), None, None
    loss = binary_ce_loss(T.constant(logits), ds.labels.astype(np.float64)).value
    preds, truth = logits > 0.0, ds.labels > 0
    tp, fp, fn = ((a & b).sum(axis=0).astype(np.float64) for a, b in
                  ((preds, truth), (preds, ~truth), (~preds, truth)))
    f1 = np.divide(2 * tp, 2 * tp + fp + fn, out=np.zeros(tp.shape), where=2 * tp + fp + fn > 0)
    return float(loss), float((preds == truth).mean()), tuple(f1), float(f1.mean())


def parameters(layers: list[Layer]) -> list[T.Node]:
    return [getattr(l, name) for l in layers if l.kind in STATE for name in STATE[l.kind][0]]


def state_dict(layers: list[Layer]) -> dict[str, np.ndarray]:
    state = {}
    for i, l in enumerate(layers):
        params, buffers = STATE.get(l.kind, ((), ()))
        state.update({f"layer{i}.{name}": getattr(l, name).value.copy() for name in params})
        state.update({f"layer{i}.{name}": np.array(getattr(l, name), dtype=np.float64) for name in buffers})
    return state


def load_state(layers: list[Layer], state: dict[str, np.ndarray]) -> None:
    for i, l in enumerate(layers):
        params, buffers = STATE.get(l.kind, ((), ()))
        for name in params:
            getattr(l, name).value = state[f"layer{i}.{name}"].copy()
        for name in buffers:
            setattr(l, name, state[f"layer{i}.{name}"].copy())


class Adam:
    """The textbook update (Kingma & Ba), one parameter at a time."""

    def __init__(self, params: list[T.Node], s):
        self.params, self.s, self.t = params, s, 0
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]

    def step(self) -> None:
        s = self.s
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = s.beta1 * self.m[i] + (1.0 - s.beta1) * g
            self.v[i] = s.beta2 * self.v[i] + (1.0 - s.beta2) * (g * g)
            m_hat = self.m[i] / (1.0 - s.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - s.beta2 ** self.t)
            p.value = p.value - s.learning_rate * m_hat / (np.sqrt(v_hat) + s.adam_eps)


def reference_train(model, train_ds, val_ds, test_ds, s) -> tuple[list[EpochRow], int, dict[str, np.ndarray]]:
    """(rows, best_epoch, final state dict) of the run train(model, ..., s) documents."""
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(s.seed, spawn_key=(1,)))
    dropout_rng = np.random.default_rng(np.random.SeedSequence(s.seed, spawn_key=(2,)))
    layers = copy_layers(model)
    if s.mode == "quantization":
        layers = quantize(layers, s.quant)
    prune_epoch = min(s.prune.warmup_epochs, s.epochs - 1) + 1 if s.mode == "pruning" else None
    stopping = s.mode == "early_stopping" or s.always_early_stop

    if train_ds.is_multitask:
        y, classes, loss_fn = train_ds.labels.astype(np.float64), 2, binary_ce_loss
    else:
        y, classes, loss_fn = np.eye(train_ds.num_classes)[train_ds.labels], train_ds.num_classes, cross_entropy_loss
    if s.mode == "label_smoothing":
        y = (1.0 - s.reg.label_smoothing) * y + s.reg.label_smoothing / classes

    rows: list[EpochRow] = []
    for epoch in range(1, s.epochs + 1):
        if epoch == prune_epoch:
            layers = prune(layers, s.prune, model.input_shape[0])
        if epoch in (1, prune_epoch):  # a fresh optimizer and stopper
            opt = Adam(parameters(layers), s)
            best_value, best_epoch, seen, bad, best_state, offset = None, 0, 0, 0, None, len(rows)
        losses = []
        perm = shuffle_rng.permutation(train_ds.n)
        for start in range(0, train_ds.n, s.batch_size):
            ids = perm[start:start + s.batch_size]
            data_loss = loss_fn(run(layers, train_ds.features[ids], True, dropout_rng), y[ids])
            loss = data_loss
            if s.mode == "weight_decay":
                squares = [T.reduce_sum(T.mul(l.weight, l.weight)) for l in layers if l.kind in AFFINE]
                loss = T.add(loss, T.mul(functools.reduce(T.add, squares), s.reg.weight_decay))
            for p in opt.params:
                p.zero_grad()
            T.backward(loss)
            opt.step()
            losses.append(float(data_loss.value))
        val_loss, val_acc, _, _ = evaluate(layers, val_ds)
        train_acc = evaluate(layers, train_ds)[1]
        _, test_acc, f1, f1_avg = evaluate(layers, test_ds)
        rows.append(EpochRow(epoch, float(np.mean(losses)), val_loss, train_acc, val_acc, test_acc, f1, f1_avg))
        if stopping:
            seen += 1
            value = val_loss if s.reg.early_stop_metric == "val_loss" else -val_acc  # lower is better
            if best_value is None or value < best_value:
                best_value, best_epoch, bad, best_state = value, seen, 0, state_dict(layers)
            else:
                bad += 1
                if bad >= max(s.reg.early_stop_patience, 1):
                    break
    if stopping:  # the stopper's first epoch always improves, so best_state is set
        load_state(layers, best_state)
        return rows, offset + best_epoch, state_dict(layers)
    return rows, len(rows), state_dict(layers)
