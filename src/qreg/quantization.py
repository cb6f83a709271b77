"""Fake quantization with straight-through gradients.

The quantizer maps x to round(x * q / lambda) clamped to [-q, q] and scaled
back by lambda / q, where q = 2^(bits-1) - 1. Everything stays in float64;
"quantized" means snapped to the grid {k * lambda / q : k = -q..q}. Rounding
is half away from zero, which keeps the map odd: fq(-x) = -fq(x) exactly.

Weights use one scale per output channel (row of a dense weight, filter of a
conv kernel), recomputed from the live weights at every forward and treated
as a constant by the backward pass. Activations use a single scalar scale
tracked as an exponential moving average of per-batch max|X|, updated only in
train mode, and kept in the buffers `act_scale` and `calibrated` of its
QuantizedLayer. Gradients cross both quantizers via the straight-through
estimator: the backward rule is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, TrainingError
from .layers import BatchNorm, Conv2d, Dense, Layer, Model, PerTaskNorm
from .tensor import Node

SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class QuantConfig:
    """Bit widths and scale-tracking settings for one quantized model.

    boundary_bits applies to the first parametric layer and the final head
    layer, which are kept at higher precision than the interior.
    keep_batchnorm=True retains normalization layers when wrapping (the
    multi-task setup); by default they are removed.
    """

    weight_bits: int = 4
    act_bits: int = 4
    boundary_bits: int = 8
    ema_momentum: float = 0.99
    keep_batchnorm: bool = False

    def __post_init__(self):
        for field in ("weight_bits", "act_bits", "boundary_bits"):
            bits = getattr(self, field)
            if not isinstance(bits, int) or not 2 <= bits <= 16:
                raise ContractError(f"{field} must be an integer in [2, 16], got {bits!r}", field)
        if not 0.0 < self.ema_momentum < 1.0:
            raise ContractError(f"ema_momentum must lie in (0, 1), got {self.ema_momentum}", "ema_momentum")


def _check_bits(bits: int) -> int:
    if not isinstance(bits, (int, np.integer)) or not 2 <= bits <= 16:
        raise ContractError(f"bit width must be an integer in [2, 16], got {bits!r}")
    return 2 ** (bits - 1) - 1


def round_half_away(y: np.ndarray, out: np.ndarray | None = None, sign: np.ndarray | None = None) -> np.ndarray:
    """Round to nearest integer, ties away from zero (odd-symmetric).

    Computes copysign(floor(|y| + 0.5), y) into `out`. `out` may be y itself
    only when `sign`, an array with y's signs, is given apart from it.
    """
    r = np.abs(y, out=out)
    r += 0.5
    np.floor(r, out=r)
    return np.copysign(r, y if sign is None else sign, out=r)


def fake_quantize(x: np.ndarray, bits: int, scale) -> np.ndarray:
    """Snap x onto the symmetric grid of 2^bits - 1 levels spanning [-scale, scale].

    scale is a positive scalar or, for per-channel quantization, an array
    with one entry per leading-axis slice of x. The result is a new array in
    x's memory layout.

    Computes copysign(min(floor(|y| + 0.5), q), x) * (scale / q) with
    y = x * (q / scale), one pass per operation. q / scale > 0, so y has x's
    signs, and this equals clip(round_half_away(y), -q, q) bit for bit,
    -0.0 and NaN included.
    """
    q = _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(scale, dtype=np.float64)
    if lam.size and not (lam.min() > 0.0 and lam.max() < np.inf):  # NaN fails both
        raise ContractError("quantization scale must be positive and finite")
    if lam.ndim > 0:
        if lam.shape != (x.shape[0],):
            raise ContractError(
                f"per-channel scale must have shape ({x.shape[0]},), got {lam.shape}"
            )
        lam = lam.reshape((-1,) + (1,) * (x.ndim - 1))
    y = np.multiply(x, q / lam, out=np.empty_like(x))
    np.abs(y, out=y)
    y += 0.5
    np.floor(y, out=y)
    T.against_scalar(np.minimum, y, q, y)
    np.copysign(y, x, out=y)
    return np.multiply(y, lam / q, out=y)


def weight_scales(w: np.ndarray) -> np.ndarray:
    """Per-output-channel max|w|, floored at 1e-8 so dead channels stay finite."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 2:
        raise ContractError(f"weight must have rank >= 2, got shape {w.shape}")
    flat = np.abs(w).reshape(w.shape[0], -1)
    return np.maximum(flat.max(axis=1), SCALE_FLOOR)


def act_scale_update(layer: QuantizedLayer, batch: np.ndarray, momentum: float) -> None:
    """Fold one batch's max|X| into the layer's EMA scale; the first call calibrates.

    lambda <- momentum*lambda + (1 - momentum)*max|batch| after calibration;
    the very first batch sets lambda = max|batch| directly. max|X| is taken
    as max(max X, -min X), with no |X| temporary. A NaN or infinite entry,
    which only diverged weights upstream produce, raises a TrainingError.
    """
    if not 0.0 < momentum < 1.0:
        raise ContractError(f"ema momentum must lie in (0, 1), got {momentum}")
    batch = np.asarray(batch)
    peak = max(float(batch.max()), -float(batch.min())) if batch.size else 0.0
    if not np.isfinite(peak):  # a NaN is both the max and the min
        raise TrainingError("activation batch contains non-finite values")
    peak = max(peak, SCALE_FLOOR)
    if not layer.calibrated:
        layer.act_scale = peak
        layer.calibrated = 1.0
    else:
        layer.act_scale = momentum * layer.act_scale + (1.0 - momentum) * peak


class QuantizedLayer(Layer):
    """Wraps a dense or conv layer with weight and activation fake quantization.

    `forward` (train mode) updates the activation scale from the raw
    (pre-quantization) input, then quantizes the input with the updated
    scale, quantizes the weights with freshly computed per-channel scales,
    and runs the wrapped layer's affine map on the quantized pair; `infer`
    does the same with the scale frozen. Biases are never quantized. Both
    quantizers sit behind straight-through nodes, so the upstream gradient
    reaches the latent weights and the input unchanged. Its parameters are
    the wrapped layer's weight and bias Nodes; its buffers, the scale
    `act_scale` and the flag `calibrated`, read 0.0 until a train batch.
    """

    kind = "quantized"
    params = ("weight", "bias")
    buffers = ("act_scale", "calibrated")

    def __init__(self, inner: Dense | Conv2d, weight_bits: int, act_bits: int, cfg: QuantConfig):
        if not isinstance(inner, (Dense, Conv2d)):
            raise ContractError(f"only dense/conv layers can be quantized, got {inner.kind}")
        _check_bits(weight_bits)
        _check_bits(act_bits)
        self.inner = inner
        self.weight_bits = weight_bits
        self.act_bits = act_bits
        self.cfg = cfg
        self.weight, self.bias = inner.weight, inner.bias
        self.act_scale = self.calibrated = 0.0
        self.last_ste_pairs: list[tuple[Node, Node]] = []

    def forward(self, x: Node, rng) -> Node:
        act_scale_update(self, x.value, self.cfg.ema_momentum)
        scale = self.act_scale
        qx = T.straight_through(x, lambda v: fake_quantize(v, self.act_bits, scale))
        lam_w = weight_scales(self.weight.value)
        qw = T.straight_through(self.weight, lambda v: fake_quantize(v, self.weight_bits, lam_w))
        self.last_ste_pairs = [(x, qx), (self.weight, qw)]
        return self.inner.forward_with(qx, qw)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval mode. Before a train batch calibrates the activation scale there
        is none, so input quantization is skipped; weights are always quantized."""
        if self.calibrated:
            x = fake_quantize(x, self.act_bits, self.act_scale)
        w = self.weight.value
        return self.inner.infer_with(x, fake_quantize(w, self.weight_bits, weight_scales(w)))


def wrap_model(model: Model, cfg: QuantConfig) -> Model:
    """Return a quantized view of the model, sharing its parameter nodes.

    All parametric layers are wrapped; the first and the last get
    boundary_bits for both weights and activations, interior layers get
    (weight_bits, act_bits). Unless cfg.keep_batchnorm, plain batch-norm
    layers are dropped (per-task norms are always kept: they are the
    multi-task output calibration, not trunk normalization).
    """
    parametric = [i for i, l in enumerate(model.layers) if isinstance(l, (Dense, Conv2d))]
    if not parametric:
        raise ContractError("model has no dense or conv layer to quantize")
    first, last = parametric[0], parametric[-1]
    layers: list[Layer] = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, (Dense, Conv2d)):
            if i == first or i == last:
                bits = (cfg.boundary_bits, cfg.boundary_bits)
            else:
                bits = (cfg.weight_bits, cfg.act_bits)
            layers.append(QuantizedLayer(layer, bits[0], bits[1], cfg))
        elif isinstance(layer, BatchNorm) and not isinstance(layer, PerTaskNorm) and not cfg.keep_batchnorm:
            continue
        else:
            layers.append(layer)
    return Model(layers, model.head, model.out_dim, model.input_shape)
