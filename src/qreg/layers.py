"""Network layers, model container, and the three model presets.

A Model is an ordered list of layers plus a classification head tag:
"softmax" (single-task, C classes) or "sigmoid" (multi-task, T independent
binary labels). Layers expose their trainable parameters as Nodes and any
non-trainable state (running statistics) as named numpy buffers. A layer
class names the attributes that hold that state once, in its `params` and
`buffers` tuples; the base class reads both tuples, and so does pruning.

Each layer's `forward` is its train-mode forward: it builds graph nodes,
updates running statistics and activation scales, and draws dropout masks.
Its `infer` is the one eval-mode forward: on raw arrays, with all of that
frozen, writing into the slots of a tensor.Workspace.
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
    and `buffers` those holding its buffer arrays, each in state-dict order."""

    kind = "layer"
    params: tuple[str, ...] = ()
    buffers: tuple[str, ...] = ()

    def forward(self, x: Node, rng) -> Node:
        raise NotImplementedError

    def infer(self, x: np.ndarray, ws: T.Workspace) -> np.ndarray:
        """Eval-mode forward of a raw batch; the result may lie in a slot of `ws`."""
        raise NotImplementedError

    def named_parameters(self) -> list[tuple[str, Node]]:
        return [(name, getattr(self, name)) for name in self.params]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in self.buffers]

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self.buffers:
            raise DataError(f"{self.kind} layer has no buffer named '{name}'")
        setattr(self, name, value.copy())


class Dense(Layer):
    """Affine map y = x W^T + b with weight stored [out_features, in_features].

    Row i of the weight is output channel i, the unit of per-channel scaling
    and of structured pruning.
    """

    kind = "dense"
    params = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = T.parameter(he_init(rng, (out_features, in_features), in_features))
        self.bias = T.parameter(np.zeros(out_features))

    def forward_with(self, x: Node, weight: Node) -> Node:
        return T.linear(x, weight, self.bias)

    def forward(self, x: Node, rng) -> Node:
        return self.forward_with(x, self.weight)

    def infer_with(self, x: np.ndarray, weight: np.ndarray, ws: T.Workspace) -> np.ndarray:
        out = ws.other(x, (x.shape[0], self.out_features))
        return T.linear_value(x, np.ascontiguousarray(weight.T), self.bias.value, out=out)

    def infer(self, x, ws):
        return self.infer_with(x, self.weight.value, ws)


class Conv2d(Layer):
    """2-d convolution layer; weight [out_channels, in_channels, kh, kw]."""

    kind = "conv2d"
    params = ("weight", "bias")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
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

    def infer_with(self, x: np.ndarray, weight: np.ndarray, ws: T.Workspace) -> np.ndarray:
        return T.conv2d_value(x, weight, self.stride, self.padding, self.bias.value, ws=ws)[0]

    def infer(self, x, ws):
        return self.infer_with(x, self.weight.value, ws)


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

    def __init__(self, dim: int, momentum: float = BN_MOMENTUM, eps: float = BN_EPS):
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.gamma = T.parameter(np.ones(dim))
        self.beta = T.parameter(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def _axes(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(shape) not in (2, 4):
            raise DimensionError(f"batchnorm expects 2-d or 4-d input, got {shape}")
        if shape[1] != self.dim:
            raise DimensionError(f"batchnorm dim {self.dim} vs input feature dim {shape[1]}")
        return (0,) if len(shape) == 2 else (0, 2, 3)

    def infer(self, x, ws):
        out = x if ws.owns(x) else ws.other(x, x.shape)  # never overwrite the caller's batch
        return T.batch_norm_eval_value(x, self.gamma.value, self.beta.value, self._axes(x.shape),
                                       self.running_mean, self.running_var, self.eps, out=out)

    def forward(self, x: Node, rng) -> Node:
        axes = self._axes(x.shape)
        if x.shape[0] < 2:
            raise ContractError("batchnorm needs a batch of at least 2 in train mode")
        out, mu, var = T.batch_norm(x, self.gamma, self.beta, axes, self.eps)
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

    def __init__(self, num_tasks: int, momentum: float = BN_MOMENTUM, eps: float = BN_EPS):
        super().__init__(num_tasks, momentum, eps)
        self.num_tasks = num_tasks

    def _axes(self, shape):
        if len(shape) != 2:
            raise DimensionError(f"per-task norm expects [N, T] input, got {shape}")
        return super()._axes(shape)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: Node, rng) -> Node:
        return T.relu(x)

    def infer(self, x, ws):
        return T.relu_value(x, out=x if ws.owns(x) else ws.other(x, x.shape))


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x: Node, rng) -> Node:
        n = x.shape[0]
        return T.reshape(x, (n, int(np.prod(x.shape[1:]))))

    def infer(self, x, ws):
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

    def infer(self, x, ws):
        return x  # inverted dropout needs no correction in eval mode


HEADS = ("softmax", "sigmoid")


class Model:
    """Ordered layer stack with a classification head tag.

    head "softmax": logits [N, out_dim] feed a C-way cross-entropy.
    head "sigmoid": logits [N, out_dim] feed out_dim independent binary
    cross-entropies (multi-task).
    """

    def __init__(self, layers: list[Layer], head: str, out_dim: int, input_shape: tuple[int, ...], name: str = ""):
        if head not in HEADS:
            raise ContractError(f"unknown head '{head}', expected one of {HEADS}")
        self.layers = list(layers)
        self.head = head
        self.out_dim = out_dim
        self.input_shape = tuple(input_shape)
        self.name = name
        self.train_mode = False

    def named_parameters(self) -> list[tuple[str, Node]]:
        out = []
        for i, layer in enumerate(self.layers):
            for pname, p in layer.named_parameters():
                out.append((f"layer{i}.{pname}", p))
        return out

    def parameters(self) -> list[Node]:
        return [p for _, p in self.named_parameters()]

    def weight_nodes(self) -> list[Node]:
        """Dense and conv weight matrices only: the targets of weight decay."""
        out = []
        for layer in self.layers:
            inner = getattr(layer, "inner", layer)
            if isinstance(inner, (Dense, Conv2d)):
                out.append(inner.weight)
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        """C-ordered copies of every parameter and buffer, by qualified name."""
        state = {name: p.value.copy(order="C") for name, p in self.named_parameters()}
        for i, layer in enumerate(self.layers):
            for bname, buf in layer.named_buffers():
                state[f"layer{i}.{bname}"] = np.asarray(buf, dtype=np.float64).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = {}
        for i, layer in enumerate(self.layers):
            for bname, _ in layer.named_buffers():
                buffers[f"layer{i}.{bname}"] = (layer, bname)
        expected = set(params) | set(buffers)
        got = set(state)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise DataError(f"state dict mismatch: missing {missing}, unexpected {extra}")
        for name, value in state.items():
            value = np.asarray(value, dtype=np.float64)
            if name in params:
                if value.shape != params[name].value.shape:
                    raise DimensionError(
                        f"parameter '{name}': stored shape {value.shape} vs model {params[name].value.shape}"
                    )
                params[name].value = value.copy()
            else:
                layer, bname = buffers[name]
                current = dict(layer.named_buffers())[bname]
                if value.shape != np.asarray(current).shape:
                    raise DimensionError(f"buffer '{name}': stored shape {value.shape} vs model {np.asarray(current).shape}")
                layer.set_buffer(bname, value)


# The eval path's scratch memory, shared by every model this process
# evaluates, so its buffers are sized once per process, not once per job.
# Nothing read from it outlives a forward call (forward copies the logits
# out), so sharing it couples no two callers; it is not for concurrent use
# by threads, which the engine never starts.
_EVAL_WS = T.Workspace()


def forward(model: Model, x, rng=None) -> Node:
    """Run the model on a batch, honoring model.train_mode. Returns logits.

    In eval mode no graph is built: each layer's `infer` runs on raw arrays
    and writes its output into the module's Workspace, whose slots are reused
    by every later eval-mode call (see tensor.Workspace). The returned logits
    are a copy, so they alias no slot, and a constant Node: they cannot be
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
            v = layer.infer(v, _EVAL_WS)
        return T.constant(v.copy())
    for layer in model.layers:
        node = layer.forward(node, rng)
    return node


def build_mlp_small(input_dim: int, num_classes: int, rng: np.random.Generator, dropout_p: float = 0.0) -> Model:
    """Dense input_dim -> 256 -> 128 -> num_classes, softmax head."""
    layers: list[Layer] = [Dense(input_dim, 256, rng), ReLU()]
    if dropout_p > 0.0:
        layers.append(Dropout(dropout_p))
    layers += [Dense(256, 128, rng), ReLU()]
    if dropout_p > 0.0:
        layers.append(Dropout(dropout_p))
    layers.append(Dense(128, num_classes, rng))
    return Model(layers, "softmax", num_classes, (input_dim,), name="mlp-small")


def build_cnn_small(input_shape: tuple[int, int, int], num_classes: int, rng: np.random.Generator, dropout_p: float = 0.0) -> Model:
    """Two conv+batchnorm blocks then two dense layers, softmax head."""
    c, h, w = input_shape
    layers: list[Layer] = [
        Conv2d(c, 8, 3, rng, stride=1, padding=1),
        BatchNorm(8),
        ReLU(),
        Conv2d(8, 16, 3, rng, stride=2, padding=1),
        BatchNorm(16),
        ReLU(),
        Flatten(),
    ]
    ho = (h + 2 - 3) // 2 + 1
    wo = (w + 2 - 3) // 2 + 1
    flat = 16 * ho * wo
    layers += [Dense(flat, 64, rng), ReLU()]
    if dropout_p > 0.0:
        layers.append(Dropout(dropout_p))
    layers.append(Dense(64, num_classes, rng))
    return Model(layers, "softmax", num_classes, tuple(input_shape), name="cnn-small")


def build_mlp_multitask(input_dim: int, num_tasks: int, rng: np.random.Generator, dropout_p: float = 0.0) -> Model:
    """Shared dense trunk then one logit per task, each with its own norm."""
    layers: list[Layer] = [Dense(input_dim, 128, rng), ReLU()]
    if dropout_p > 0.0:
        layers.append(Dropout(dropout_p))
    layers += [Dense(128, 64, rng), ReLU()]
    if dropout_p > 0.0:
        layers.append(Dropout(dropout_p))
    layers += [Dense(64, num_tasks, rng), PerTaskNorm(num_tasks)]
    return Model(layers, "sigmoid", num_tasks, (input_dim,), name="mlp-multitask")


MODEL_PRESETS = {
    "mlp-small": build_mlp_small,
    "cnn-small": build_cnn_small,
    "mlp-multitask": build_mlp_multitask,
}
