"""Structured magnitude pruning: remove whole neurons from a copy of the network.

A "neuron" is one output channel of a dense or conv layer: a row of a dense
weight or one conv filter. Pruning scores each neuron by the L1 norm of its
weights and drops the floor(ratio * F) lowest-scoring neurons of every hidden
parametric layer (the head is never touched). Removal sets are computed from
the pre-pruning weights for all layers at once.

The pruned network is made of shallow copies of the original layers, each
given sliced copies of its parameters and buffers: a dense or conv layer
keeps the input columns of the surviving neurons of the layer before it,
then its own surviving rows, and a normalization layer keeps the surviving
channels. Nothing else is set: a layer's widths are read from its parameter
shapes, so the sliced parameters are the whole change. The copy computes
exactly what the original computes with the dropped neurons' activations
forced to zero.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .layers import BatchNorm, Conv2d, Dense, Dropout, Flatten, Layer, Model, ReLU
from .tensor import parameter

CRITERIA = ("lowest", "highest")

# slack in floor(ratio * F + FLOOR_SLACK), so that 0.3 * 10 drops 3 neurons, not 2
FLOOR_SLACK = 1e-9


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
        # the ratio that drops the neuron of a one-neuron layer is the least
        # that drops every neuron of a layer of any width
        if math.floor(self.ratio + FLOOR_SLACK) >= 1:
            raise ContractError(f"prune ratio {self.ratio} would remove every neuron of a layer", "ratio")
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

    Drops floor(ratio * F) neurons, up to FLOOR_SLACK; ties break toward
    the lower index.
    """
    norms = neuron_norms(weight)
    f = norms.shape[0]
    k_drop = int(math.floor(ratio * f + FLOOR_SLACK))
    if criterion == "lowest":
        order = np.argsort(norms, kind="stable")
    else:
        order = np.argsort(-norms, kind="stable")
    dropped = order[:k_drop]
    keep = np.setdiff1d(np.arange(f), dropped)
    if keep.size == 0:
        raise ContractError("pruning would remove every neuron in a layer")
    return keep


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
    keeps = {i: keep_indices(model.layers[i].weight.value, spec.ratio, spec.criterion)
             for i in parametric if i != head_idx}

    new_layers: list[Layer] = []
    channels = model.input_shape[0]  # output count of the previous layer, before pruning
    keep = np.arange(channels)  # which of those survive
    for i, layer in enumerate(model.layers):
        new = copy.copy(layer)
        if isinstance(layer, (Dense, Conv2d)):
            w = layer.weight.value
            rows = keeps.get(i, np.arange(w.shape[0]))
            # viewed as [out, previous channels, rest]: after a flatten, a dense
            # weight holds a block of w.shape[1] // channels columns per channel
            taken = w.reshape(w.shape[0], channels, -1)[np.ix_(rows, keep)]  # a copy
            new.weight = parameter(np.ascontiguousarray(taken).reshape((rows.size, -1) + w.shape[2:]))
            new.bias = parameter(layer.bias.value[rows])
            channels, keep = w.shape[0], rows
        elif isinstance(layer, BatchNorm):
            for name in layer.params:
                setattr(new, name, parameter(getattr(layer, name).value[keep]))
            for name in layer.buffers:
                setattr(new, name, getattr(layer, name)[keep])
        elif not isinstance(layer, (ReLU, Flatten, Dropout)):
            raise ContractError(f"cannot prune through layer kind '{layer.kind}'")
        new_layers.append(new)
    return Model(new_layers, model.head, model.out_dim, model.input_shape)
