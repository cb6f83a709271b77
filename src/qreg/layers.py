"""Network layers, model container, and the three model presets.

A Model is an ordered list of layers plus a classification head tag:
"softmax" (single-task, C classes) or "sigmoid" (multi-task, T independent
binary labels). Layers expose their trainable parameters as Nodes and any
non-trainable state (running statistics, activation scales) as named numpy
buffers. A layer class names the attributes that hold that state once, in
its `params` and `buffers` tuples: the state dict, checkpoint loading and
pruning read only those, and a layer's widths are read from its parameter shapes.

Each layer's `forward` is its train-mode forward: it builds graph nodes,
updates running statistics and activation scales, and draws dropout masks.
Its `infer` is the one eval-mode forward: on raw arrays, with all of that
frozen. It returns a fresh array (or, for Flatten and Dropout, a view of its
input) and never writes into its input.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ContractError, DataError, DimensionError
from .regularization import dropout_forward
from .tensor import Node

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)


class Layer:
    """Base layer. `params` names the attributes holding its parameter Nodes
    and `buffers` those holding its buffers (float64 arrays or scalars), each
    in state-dict order."""

    kind = "layer"
    params: tuple[str, ...] = ()
    buffers: tuple[str, ...] = ()

    def forward(self, x: Node, rng) -> Node:
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward of a raw batch; `x` is only read."""
        raise NotImplementedError

    def named_parameters(self) -> list[tuple[str, Node]]:
        return [(name, getattr(self, name)) for name in self.params]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in self.buffers]


class Dense(Layer):
    """Affine map y = x W^T + b with weight stored [out_features, in_features].

    Row i of the weight is output channel i, the unit of per-channel scaling
    and of structured pruning.
    """

    kind = "dense"
    params = ("weight", "bias")
    out_features = property(lambda self: self.weight.shape[0])
    in_features = property(lambda self: self.weight.shape[1])

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = T.parameter(he_init(rng, (out_features, in_features), in_features))
        self.bias = T.parameter(np.zeros(out_features))

    def forward_with(self, x: Node, weight: Node) -> Node:
        return T.linear(x, weight, self.bias)

    def forward(self, x: Node, rng) -> Node:
        return self.forward_with(x, self.weight)

    def infer_with(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        return T.linear_value(x, np.ascontiguousarray(weight.T), self.bias.value)

    def infer(self, x):
        return self.infer_with(x, self.weight.value)


class Conv2d(Layer):
    """2-d convolution layer; weight [out_channels, in_channels, kh, kw]."""

    kind = "conv2d"
    params = ("weight", "bias")
    out_channels = property(lambda self: self.weight.shape[0])
    in_channels = property(lambda self: self.weight.shape[1])

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = T.parameter(
            he_init(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in)
        )
        self.bias = T.parameter(np.zeros(out_channels))

    def forward_with(self, x: Node, weight: Node) -> Node:
        return T.conv2d(x, weight, self.stride, self.padding, bias=self.bias)

    def forward(self, x: Node, rng) -> Node:
        return self.forward_with(x, self.weight)

    def infer_with(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        return T.conv2d_value(x, weight, self.stride, self.padding, self.bias.value)

    def infer(self, x):
        return self.infer_with(x, self.weight.value)


class BatchNorm(Layer):
    """Batch normalization over the feature axis.

    Train mode normalizes by batch statistics (biased variance) and updates
    running statistics as running <- momentum*running + (1-momentum)*batch.
    Eval mode normalizes by the running statistics. Accepts [N, D] input
    (normalizes over N) or [N, C, H, W] (normalizes over N, H, W).

    Train mode is one fused graph node, T.batch_norm, bit for bit the
    composition of elementary ops it replaces; `infer` runs
    T.batch_norm_eval_value.
    """

    kind = "batchnorm"
    params = ("gamma", "beta")
    buffers = ("running_mean", "running_var")
    dim = property(lambda self: self.gamma.shape[0])
    momentum = BN_MOMENTUM
    eps = BN_EPS

    def __init__(self, dim: int):
        self.gamma = T.parameter(np.ones(dim))
        self.beta = T.parameter(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def _check(self, shape: tuple[int, ...]) -> None:
        if len(shape) not in (2, 4):
            raise DimensionError(f"batchnorm expects 2-d or 4-d input, got {shape}")
        if shape[1] != self.dim:
            raise DimensionError(f"batchnorm dim {self.dim} vs input feature dim {shape[1]}")

    def infer(self, x):
        self._check(x.shape)
        return T.batch_norm_eval_value(x, self.gamma.value, self.beta.value,
                                       self.running_mean, self.running_var, self.eps)

    def forward(self, x: Node, rng) -> Node:
        self._check(x.shape)
        if x.shape[0] < 2:
            raise ContractError("batchnorm needs a batch of at least 2 in train mode")
        out, mu, var = T.batch_norm(x, self.gamma, self.beta, self.eps)
        m = self.momentum
        self.running_mean = m * self.running_mean + (1.0 - m) * mu.reshape(self.dim)
        self.running_var = m * self.running_var + (1.0 - m) * var.reshape(self.dim)
        return out


class PerTaskNorm(BatchNorm):
    """One independent 1-feature batch norm per task, vectorized.

    Over [N, T] input this is exactly T separate batch norms: each column has
    its own gamma, beta, and running statistics, with no interaction between
    columns.
    """

    kind = "pertasknorm"
    num_tasks = BatchNorm.dim

    def _check(self, shape):
        if len(shape) != 2:
            raise DimensionError(f"per-task norm expects [N, T] input, got {shape}")
        super()._check(shape)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: Node, rng) -> Node:
        return T.relu(x)

    def infer(self, x):
        return T.relu_value(x)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x: Node, rng) -> Node:
        n = x.shape[0]
        return T.reshape(x, (n, int(np.prod(x.shape[1:]))))

    def infer(self, x):
        return x.reshape(x.shape[0], -1)


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Node, rng) -> Node:
        if self.p > 0.0 and rng is None:
            raise ContractError("dropout in train mode needs an rng")
        return dropout_forward(x, self.p, rng)

    def infer(self, x):
        return x  # inverted dropout needs no correction in eval mode


HEADS = ("softmax", "sigmoid")


class Model:
    """Ordered layer stack with a classification head tag.

    head "softmax": logits [N, out_dim] feed a C-way cross-entropy.
    head "sigmoid": logits [N, out_dim] feed out_dim independent binary
    cross-entropies (multi-task).
    """

    def __init__(self, layers: list[Layer], head: str, out_dim: int, input_shape: tuple[int, ...]):
        if head not in HEADS:
            raise ContractError(f"unknown head '{head}', expected one of {HEADS}")
        self.layers = list(layers)
        self.head = head
        self.out_dim = out_dim
        self.input_shape = tuple(input_shape)
        self.train_mode = False

    def named_parameters(self) -> list[tuple[str, Node]]:
        return [(f"layer{i}.{name}", p) for i, layer in enumerate(self.layers) for name, p in layer.named_parameters()]

    def parameters(self) -> list[Node]:
        return [p for _, p in self.named_parameters()]

    def weight_nodes(self) -> list[Node]:
        """Dense and conv weight matrices only, quantized or not: the targets of weight decay."""
        return [layer.weight for layer in self.layers if "weight" in layer.params]

    def state_dict(self) -> dict[str, np.ndarray]:
        """C-ordered copies of every parameter and buffer, by qualified name."""
        state = {name: p.value.copy(order="C") for name, p in self.named_parameters()}
        for i, layer in enumerate(self.layers):
            for bname, buf in layer.named_buffers():
                state[f"layer{i}.{bname}"] = np.asarray(buf, dtype=np.float64).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy each entry into the parameter or buffer of the same name and shape."""
        slots = {f"layer{i}.{attr}": (layer, attr)
                 for i, layer in enumerate(self.layers) for attr in layer.params + layer.buffers}
        if set(slots) != set(state):
            missing = sorted(set(slots) - set(state))
            extra = sorted(set(state) - set(slots))
            raise DataError(f"state dict mismatch: missing {missing}, unexpected {extra}")
        for name, value in state.items():
            value = np.asarray(value, dtype=np.float64)
            layer, attr = slots[name]
            is_param = attr in layer.params
            current = getattr(layer, attr).value if is_param else np.asarray(getattr(layer, attr))
            if value.shape != current.shape:
                kind = "parameter" if is_param else "buffer"
                raise DimensionError(f"{kind} '{name}': stored shape {value.shape} vs model {current.shape}")
            if is_param:
                getattr(layer, attr).value = value.copy()
            else:
                setattr(layer, attr, value.copy())


def forward(model: Model, x, rng=None) -> Node:
    """Run the model on a batch, honoring model.train_mode. Returns logits.

    In eval mode no graph is built: each layer's `infer` runs on raw arrays
    and returns a fresh one, so the batch is only read. The logits share no
    memory with the batch, and are a constant Node: they cannot be
    backpropagated.
    """
    node = x if isinstance(x, Node) else T.constant(x)
    if node.value.ndim < 2 or node.shape[1:] != model.input_shape:
        raise DimensionError(
            f"input shape {node.shape} does not match model input {('N',) + model.input_shape}"
        )
    if not model.train_mode:
        v = node.value
        for layer in model.layers:
            v = layer.infer(v)
        # a stack of Flatten and Dropout layers alone would hand back a view of the batch
        return T.constant(v.copy() if np.may_share_memory(v, node.value) else v)
    for layer in model.layers:
        node = layer.forward(node, rng)
    return node


def _hidden(widths: tuple[int, ...], rng: np.random.Generator, dropout_p: float) -> list[Layer]:
    """Dense -> ReLU (-> Dropout when dropout_p > 0) between each pair of consecutive widths."""
    layers: list[Layer] = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        layers += [Dense(fan_in, fan_out, rng), ReLU()]
        if dropout_p > 0.0:
            layers.append(Dropout(dropout_p))
    return layers


def build_mlp_small(input_dim: int, num_classes: int, rng: np.random.Generator, dropout_p: float = 0.0) -> Model:
    """Dense input_dim -> 256 -> 128 -> num_classes, softmax head."""
    layers = _hidden((input_dim, 256, 128), rng, dropout_p) + [Dense(128, num_classes, rng)]
    return Model(layers, "softmax", num_classes, (input_dim,))


def build_cnn_small(input_shape: tuple[int, int, int], num_classes: int, rng: np.random.Generator, dropout_p: float = 0.0) -> Model:
    """Two conv+batchnorm blocks then two dense layers, softmax head."""
    c, h, w = input_shape
    layers: list[Layer] = []
    for conv in (Conv2d(c, 8, 3, rng, stride=1, padding=1), Conv2d(8, 16, 3, rng, stride=2, padding=1)):
        k = conv.weight.shape[2]
        h, w = (T.conv_size(n, k, conv.stride, conv.padding) for n in (h, w))
        layers += [conv, BatchNorm(conv.out_channels), ReLU()]
    layers += [Flatten(), *_hidden((conv.out_channels * h * w, 64), rng, dropout_p), Dense(64, num_classes, rng)]
    return Model(layers, "softmax", num_classes, tuple(input_shape))


def build_mlp_multitask(input_dim: int, num_tasks: int, rng: np.random.Generator, dropout_p: float = 0.0) -> Model:
    """Shared dense trunk then one logit per task, each with its own norm."""
    layers = _hidden((input_dim, 128, 64), rng, dropout_p) + [Dense(64, num_tasks, rng), PerTaskNorm(num_tasks)]
    return Model(layers, "sigmoid", num_tasks, (input_dim,))


MODEL_PRESETS = {
    "mlp-small": build_mlp_small,
    "cnn-small": build_cnn_small,
    "mlp-multitask": build_mlp_multitask,
}
