"""Structured magnitude pruning: remove whole neurons, rebuild the network.

A "neuron" is one output channel of a dense or conv layer: a row of a dense
weight or one conv filter. Pruning scores each neuron by the L1 norm of its
weights, drops the floor(ratio * F) lowest-scoring neurons of every hidden
parametric layer (the head is never touched), and rebuilds downstream layers
so dimensions stay consistent: following dense layers lose input columns,
following convs lose input-channel slices, and normalization layers lose the
matching channels. Removal sets are computed from the pre-pruning weights for
all layers at once, so the rebuilt network computes exactly what the original
computes with those neurons' activations forced to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .layers import BatchNorm, Conv2d, Dense, Dropout, Flatten, Layer, Model, PerTaskNorm, ReLU
from .tensor import parameter

CRITERIA = ("lowest", "highest")


@dataclass(frozen=True)
class PruneSpec:
    """Pruning ratio, neuron-scoring direction, and warmup length in epochs.

    criterion "lowest" removes the smallest-L1 neurons (the default);
    "highest" is the inverted ablation.
    """

    ratio: float
    warmup_epochs: int = 0
    criterion: str = "lowest"

    def __post_init__(self):
        if not 0.0 <= self.ratio < 1.0:
            raise ContractError(f"prune ratio must lie in [0, 1), got {self.ratio}", "ratio")
        if self.warmup_epochs < 0:
            raise ContractError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}", "warmup_epochs")
        if self.criterion not in CRITERIA:
            raise ContractError(f"criterion must be one of {CRITERIA}, got '{self.criterion}'", "criterion")


def neuron_norms(weight: np.ndarray) -> np.ndarray:
    """L1 norm of each output channel (row of a dense weight, conv filter).

    The sum runs over a C-ordered copy: over a Fortran-order weight (see
    training.Adam) numpy would add the same terms in another order.
    """
    w = np.ascontiguousarray(weight, dtype=np.float64)
    if w.ndim < 2:
        raise ContractError(f"weight must have rank >= 2, got shape {w.shape}")
    return np.abs(w).reshape(w.shape[0], -1).sum(axis=1)


def keep_indices(weight: np.ndarray, ratio: float, criterion: str = "lowest") -> np.ndarray:
    """Ascending indices of the neurons that survive pruning at this ratio.

    Drops floor(ratio * F) neurons; ties break toward the lower index. The
    tiny slack in the floor guards against float artifacts like 0.3*10
    evaluating just below 3.
    """
    norms = neuron_norms(weight)
    f = norms.shape[0]
    k_drop = int(math.floor(ratio * f + 1e-9))
    if criterion == "lowest":
        order = np.argsort(norms, kind="stable")
    else:
        order = np.argsort(-norms, kind="stable")
    dropped = order[:k_drop]
    keep = np.setdiff1d(np.arange(f), dropped)
    if keep.size == 0:
        raise ContractError("pruning would remove every neuron in a layer")
    return keep


def _dense_from(weight: np.ndarray, bias: np.ndarray) -> Dense:
    layer = Dense.__new__(Dense)
    layer.in_features = weight.shape[1]
    layer.out_features = weight.shape[0]
    layer.weight = parameter(weight.copy())
    layer.bias = parameter(bias.copy())
    return layer


def _conv_from(weight: np.ndarray, bias: np.ndarray, stride: int, padding: int) -> Conv2d:
    layer = Conv2d.__new__(Conv2d)
    layer.out_channels, layer.in_channels = weight.shape[0], weight.shape[1]
    layer.kernel_size = weight.shape[2]
    layer.stride = stride
    layer.padding = padding
    layer.weight = parameter(weight.copy())
    layer.bias = parameter(bias.copy())
    return layer


def _norm_from(src: BatchNorm, keep: np.ndarray | None) -> BatchNorm:
    idx = slice(None) if keep is None else keep
    if isinstance(src, PerTaskNorm):
        out = PerTaskNorm(len(src.gamma.value[idx]), src.momentum, src.eps)
    else:
        out = BatchNorm(len(src.gamma.value[idx]), src.momentum, src.eps)
    out.gamma = parameter(src.gamma.value[idx].copy())
    out.beta = parameter(src.beta.value[idx].copy())
    out.running_mean = src.running_mean[idx].copy()
    out.running_var = src.running_var[idx].copy()
    return out


def prune_model(model: Model, spec: PruneSpec) -> Model:
    """Build a pruned copy of the model; the original is left untouched.

    Every dense/conv layer except the last (the head) is pruned. With
    ratio 0 the result is a deep copy computing bitwise-identical outputs.
    """
    from .quantization import QuantizedLayer

    if any(isinstance(l, QuantizedLayer) for l in model.layers):
        raise ContractError("pruning a quantized model is not supported")
    parametric = [i for i, l in enumerate(model.layers) if isinstance(l, (Dense, Conv2d))]
    if not parametric:
        raise ContractError("model has no dense or conv layer to prune")
    head_idx = parametric[-1]

    # removal sets come from the original weights, decided for all layers at once
    keeps: dict[int, np.ndarray] = {}
    for i in parametric:
        if i != head_idx:
            keeps[i] = keep_indices(model.layers[i].weight.value, spec.ratio, spec.criterion)

    new_layers: list[Layer] = []
    keep: np.ndarray | None = None  # surviving feature indices of the previous layer
    spatial: tuple[int, int] | None = None
    if len(model.input_shape) == 3:
        spatial = (model.input_shape[1], model.input_shape[2])

    for i, layer in enumerate(model.layers):
        if isinstance(layer, Dense):
            w = layer.weight.value
            if keep is not None:
                if spatial is not None:
                    # surviving channels expand to blocks of flattened pixels
                    h, wd = spatial
                    cols = (keep[:, None] * (h * wd) + np.arange(h * wd)[None, :]).ravel()
                else:
                    cols = keep
                w = w[:, cols]
            spatial = None  # features are flat from here on
            b = layer.bias.value
            if i in keeps:
                rows = keeps[i]
                w, b = w[rows], b[rows]
                keep = None if rows.size == layer.out_features else rows
            else:
                keep = None
            new_layers.append(_dense_from(w, b))
        elif isinstance(layer, Conv2d):
            w = layer.weight.value
            if keep is not None:
                w = w[:, keep]
            b = layer.bias.value
            if i in keeps:
                rows = keeps[i]
                w, b = w[rows], b[rows]
                keep = None if rows.size == layer.out_channels else rows
            else:
                keep = None
            new_layers.append(_conv_from(w, b, layer.stride, layer.padding))
            if spatial is not None:
                h, wd = spatial
                k, s, p = layer.kernel_size, layer.stride, layer.padding
                spatial = ((h + 2 * p - k) // s + 1, (wd + 2 * p - k) // s + 1)
        elif isinstance(layer, BatchNorm):
            new_layers.append(_norm_from(layer, keep))
        elif isinstance(layer, (ReLU, Flatten)):
            new_layers.append(type(layer)())
        elif isinstance(layer, Dropout):
            new_layers.append(Dropout(layer.p))
        else:
            raise ContractError(f"cannot prune through layer kind '{layer.kind}'")
    return Model(new_layers, model.head, model.out_dim, model.input_shape, name=model.name)
