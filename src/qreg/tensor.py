"""Reverse-mode automatic differentiation over dense float64 arrays.

A Node wraps a numpy array plus the bookkeeping needed to run backprop:
its parents in the computation graph, a backward rule mapping the upstream
gradient to per-parent gradients, and the gradient backward() stores.
Graphs are built by the free functions below (matmul, conv2d, relu, ...);
backward() walks the graph once in reverse topological order and accumulates
gradients into every reachable node that requires them.

Values are float64 throughout and C-contiguous, with one exception: a 2-D
parameter that training.Adam has updated holds a Fortran-order view, the
layout of the gradient linear returns, and straight_through keeps that
layout in its image. Elementwise work gives the same bits in either layout;
a reduction over a weight must not depend on it (pruning.neuron_norms sums
a C-ordered copy, Model.state_dict copies in C order). Arrays handed to a
Node are treated as immutable from then on; optimizers rebind `node.value`
to a fresh array rather than writing in place. Gradients follow the same
contract: backward stores each node's first gradient without copying it (it
may be the very array a backward rule returned, shared with other nodes or
read-only), adds later contributions into a new array, and no rule writes
into a gradient.

The layers train on three fused nodes: linear (dense affine map), conv2d
with its bias, and batch_norm. Each replaces a composition of the
elementary ops above with one node whose forward and backward evaluate
that composition's numpy expressions, in the order its graph sums them, so
values and gradients are bit for bit those of the composed graph. Each
fused op's docstring names the composition it stands for. The kernels
avoid numpy calls that loop over short rows or build padded copies:
conv2d gathers its im2col matrix from the unpadded input plus one zero
column and scatters its input gradient with one bincount, and batch_norm
broadcasts each per-channel statistic over flat [N, C*H*W] rows.

Eval-mode forward (layers.forward) builds no graph. It runs the raw-array
kernels linear_value and relu_value, which the graph nodes call for their
forward too; conv2d_value, the conv2d node's gather and product without
the im2col matrix that only its backward keeps; batch_norm_eval_value; and
quantization.fake_quantize. Each returns a fresh array and never writes
into its inputs, as training's nodes do.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

Array = np.ndarray
_FLOAT64 = np.dtype(np.float64)


def as_array(x) -> Array:
    a = np.asarray(x, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to 1-d
    return np.ascontiguousarray(a) if a.ndim else a


class Node:
    """One vertex of the computation graph.

    backward_rule, when present, takes the upstream gradient (same shape as
    `value`) and returns one gradient per parent, in parent order; entries
    may be None for parents that need no gradient.
    """

    __slots__ = ("value", "parents", "requires_grad", "name", "_grad", "_backward_rule")

    def __init__(
        self,
        value,
        parents: Sequence["Node"] = (),
        backward_rule: Callable[[Array], Sequence[Array | None]] | None = None,
        requires_grad: bool = False,
        name: str = "",
    ):
        # the array as_array would return, without the calls: most values are one already
        if type(value) is np.ndarray and value.dtype is _FLOAT64 and value.flags.c_contiguous:
            self.value = value
        else:
            self.value = as_array(value)
        self.parents = tuple(parents)
        self._backward_rule = backward_rule
        self.requires_grad = bool(requires_grad)
        if not self.requires_grad:
            for p in self.parents:
                if p.requires_grad:
                    self.requires_grad = True
                    break
        self.name = name
        self._grad = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def grad(self) -> Array:
        """Accumulated gradient, read-only by contract; zeros if backward never reached this node."""
        if self._grad is None:
            return np.zeros_like(self.value)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def _accumulate(self, g: Array) -> None:
        # gradients are immutable like values: the first one is stored as is
        # (it may alias another node's gradient) and later ones rebind
        assert g.shape == self.value.shape, f"gradient shape {g.shape} vs value {self.value.shape}"
        if self._grad is None:
            self._grad = g
        else:
            self._grad = self._grad + g

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Node(shape={self.value.shape}{tag}, requires_grad={self.requires_grad})"


def _rows(a: Array) -> Array:
    """a [N, C, H, W] (or [N, C]) as [N, C*H*W] rows, the layout per-channel broadcasts run on."""
    return a.reshape(a.shape[0], -1)


def _memory_rows(a: Array) -> Array | None:
    """a as a 2-D view whose rows run along its memory, C- or Fortran-ordered;
    None when a is under 2-D, empty, or neither."""
    if a.ndim < 2 or not a.size:
        return None
    if a.flags.c_contiguous:
        return a.reshape(a.shape[0], -1)
    if a.flags.f_contiguous:
        return a.T.reshape(a.shape[-1], -1)
    return None


@functools.lru_cache(maxsize=64)
def _filled_row(width: int, value: float, sign: float) -> Array:
    # the key carries the sign because -0.0 and 0.0 compare and hash equal
    row = np.full(width, math.copysign(value, sign))
    row.flags.writeable = False  # every caller gets this one array
    return row


def against_scalar(ufunc: np.ufunc, a: Array, value: float, out: Array) -> Array:
    """ufunc(a, value, out=out), bit for bit; `out` has a's shape and strides (it may be a).

    numpy runs a binary ufunc on two arrays in its fast inner loop, but on an
    array and a scalar in a broadcast loop about half as fast (52 against 30
    us for np.maximum at 512 x 256). So `value` goes in as a cached read-only
    row, broadcast over the rows of a and out in memory order. An array
    without such rows (see _memory_rows) takes the scalar form.
    """
    rows = _memory_rows(a)
    if rows is None or out.shape != a.shape or out.strides != a.strides:
        return ufunc(a, value, out=out)
    ufunc(rows, _filled_row(rows.shape[1], value, math.copysign(1.0, value)), out=_memory_rows(out))
    return out


def _spread(stat: Array, shape: tuple[int, ...]) -> Array:
    """One entry per channel laid out as a row of _rows for `shape`: each repeated H*W times.

    Broadcasting it over the rows costs one pass over contiguous memory,
    where a [1, C, 1, 1] operand would loop over rows of W elements.
    """
    hw = math.prod(shape[2:])
    return stat.reshape(-1).repeat(hw) if hw > 1 else stat.reshape(-1)


def constant(value, name: str = "") -> Node:
    return Node(value, name=name)


def parameter(value, name: str = "") -> Node:
    return Node(value, requires_grad=True, name=name)


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into every reachable node requiring grad.

    `loss` must be a scalar (shape () or (1,)). Gradients add onto whatever
    is already stored, so call zero_grad on parameters between steps.
    """
    if loss.value.shape not in ((), (1,)):
        raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if not loss.requires_grad:
        return
    # iterative post-order DFS; recursion would overflow on deep graphs
    topo: list[Node] = []
    seen = {id(loss)}
    stack: list[tuple[Node, int]] = [(loss, 0)]
    while stack:
        node, i = stack.pop()
        if i < len(node.parents):
            stack.append((node, i + 1))
            p = node.parents[i]
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, 0))
        else:
            topo.append(node)
    # propagate through per-call buffers, then fold into the persistent .grad;
    # reusing .grad directly would re-propagate stale sums on a second call
    local: dict[int, Array] = {id(loss): np.ones_like(loss.value)}
    for node in reversed(topo):
        g = local.pop(id(node), None)
        if g is None:
            continue
        node._accumulate(g)
        rule = node._backward_rule
        if rule is None:
            continue
        for parent, pg in zip(node.parents, rule(g)):
            if parent.requires_grad and pg is not None:
                pid = id(parent)
                prev = local.get(pid)
                local[pid] = pg if prev is None else prev + pg


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes numpy broadcasting expanded."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(reversed(a), reversed(b)):
        if x != y and x != 1 and y != 1:
            return False
    return True


def _binary(a: Node, b: Node, fn, da, db, opname: str) -> Node:
    if not _broadcastable(a.shape, b.shape):
        raise DimensionError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast")
    out_value = fn(a.value, b.value)

    def rule(g: Array):
        ga = _unbroadcast(da(g), a.shape) if a.requires_grad else None
        gb = _unbroadcast(db(g), b.shape) if b.requires_grad else None
        return ga, gb

    return Node(out_value, (a, b), rule)


def add(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, np.add, lambda g: g, lambda g: g, "add")


def sub(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    return _binary(a, b, np.subtract, lambda g: g, lambda g: -g, "sub")


def mul(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    av, bv = a.value, b.value
    return _binary(a, b, np.multiply, lambda g: g * bv, lambda g: g * av, "mul")


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def rule(g: Array):
        ga = g @ bv.T if a.requires_grad else None
        gb = av.T @ g if b.requires_grad else None
        return ga, gb

    return Node(av @ bv, (a, b), rule)


def linear_value(xv: Array, wt: Array, bv: Array) -> Array:
    """xv [N,D] @ wt [D,F] + bv [F] on raw arrays: linear's forward.

    wt is the weight transposed and contiguous.
    """
    if wt.ndim != 2:
        raise DimensionError(f"linear needs a 2-d weight, got {wt.T.shape}")
    if xv.ndim != 2:
        raise DimensionError(f"linear needs a 2-d input, got {xv.shape}")
    if xv.shape[1] != wt.shape[0]:
        raise DimensionError(f"linear: input has {xv.shape[1]} features but weight expects {wt.shape[0]}")
    if bv.shape != (wt.shape[1],):
        raise DimensionError(f"linear: bias {bv.shape} does not match {wt.shape[1]} outputs")
    out = xv @ wt
    out += bv
    return out


def linear(x: Node, w: Node, b: Node) -> Node:
    """Affine map x [N,D] @ w.T + b with w [F,D], as one node.

    Stands for add(matmul(x, transpose(w)), b): the transposed weight is
    made contiguous as the transpose node made it, and the gradients are the
    composed graph's g @ wt.T, (x.T @ g).T and the bias sum.
    """
    xv, bv = x.value, b.value
    wt = np.ascontiguousarray(w.value.T)
    out = linear_value(xv, wt, bv)

    def rule(g: Array):
        gx = g @ wt.T if x.requires_grad else None
        gw = (xv.T @ g).T if w.requires_grad else None
        gb = _unbroadcast(g, bv.shape) if b.requires_grad else None
        return gx, gw, gb

    return Node(out, (x, w, b), rule)


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise DimensionError(f"transpose needs a 2-d operand, got {a.shape}")
    return Node(a.value.T, (a,), lambda g: (g.T,))


def reshape(a: Node, shape: tuple[int, ...]) -> Node:
    old = a.value.shape
    try:
        out = a.value.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape {old} -> {shape}: {e}") from None
    return Node(out, (a,), lambda g: (g.reshape(old),))


def relu_value(v: Array) -> Array:
    """max(v, 0) on raw arrays: relu's forward."""
    return against_scalar(np.maximum, v, 0.0, np.empty_like(v))


def relu(a: Node) -> Node:
    v = a.value
    mask = v > 0.0  # gradient at exactly zero is zero
    return Node(relu_value(v), (a,), lambda g: (g * mask,))


def sigmoid(a: Node) -> Node:
    out = sigmoid_value(a.value)
    return Node(out, (a,), lambda g: (g * out * (1.0 - out),))


def sigmoid_value(v: Array) -> Array:
    """Numerically stable logistic function on raw arrays.

    1 / (1 + exp(-v)) for v >= 0 and exp(v) / (1 + exp(v)) otherwise, with
    both branches computed from exp(-|v|), which never overflows. -|v| is
    taken as minimum(v, -v), which passes a NaN on with its sign bit.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(np.minimum(v, -v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def exp(a: Node) -> Node:
    out = np.exp(a.value)
    return Node(out, (a,), lambda g: (g * out,))


def log(a: Node) -> Node:
    v = a.value
    if np.any(v <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return Node(np.log(v), (a,), lambda g: (g / v,))


def power(a: Node, exponent: float) -> Node:
    """Elementwise a**exponent for a constant real exponent."""
    v = a.value
    if exponent != int(exponent) and np.any(v < 0.0):
        raise DomainError("fractional power of a negative base")
    out = v ** exponent

    def rule(g: Array):
        return (g * exponent * v ** (exponent - 1.0),)

    return Node(out, (a,), rule)


def clamp(a: Node, lo: float, hi: float) -> Node:
    if not lo < hi:
        raise ContractError(f"clamp bounds must satisfy lo < hi, got [{lo}, {hi}]")
    v = a.value
    mask = (v >= lo) & (v <= hi)  # gradient passes inside the closed interval
    return Node(np.clip(v, lo, hi), (a,), lambda g: (g * mask,))


def reduce_sum(a: Node, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Node:
    v = a.value
    out = v.sum(axis=axis, keepdims=keepdims)
    if axis is None:
        kept = (1,) * v.ndim
    else:
        ax = (axis,) if isinstance(axis, int) else tuple(axis)
        ax = tuple(i % v.ndim for i in ax)
        kept = tuple(1 if i in ax else d for i, d in enumerate(v.shape))

    def rule(g: Array):
        return (np.broadcast_to(g.reshape(kept), v.shape),)

    return Node(out, (a,), rule)


def reduce_mean(a: Node, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Node:
    v = a.value
    if axis is None:
        count = v.size
    else:
        ax = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([v.shape[i % v.ndim] for i in ax]))
    total = reduce_sum(a, axis=axis, keepdims=keepdims)
    return mul(total, 1.0 / count)


def straight_through(a: Node, forward: Callable[[Array], Array]) -> Node:
    """Apply `forward` to the value; pass the upstream gradient through unchanged.

    The straight-through estimator: the backward rule is the identity, so the
    gradient reaching this node's output is handed to `a` bit for bit.
    `forward` must preserve shape. The image of a Fortran-order parameter
    (see the module docstring) is kept in Fortran order when `forward` made
    it so, as elementwise numpy does, so `linear` reads its transpose
    without a copy.
    """
    out = np.asarray(forward(a.value), dtype=np.float64)
    if out.shape != a.value.shape:
        raise ContractError(
            f"straight_through forward changed shape {a.value.shape} -> {out.shape}"
        )
    node = Node((), (a,), lambda g: (g,))  # Node() would copy a Fortran-order value
    node.value = out if out.ndim == 2 and out.flags.f_contiguous else as_array(out)
    return node


def conv_size(n: int, k: int, stride: int, padding: int) -> int:
    """Output length of a convolution along one axis of length n, kernel k."""
    return (n + 2 * padding - k) // stride + 1


@functools.lru_cache(maxsize=64)
def _im2col_index(c: int, h: int, w: int, padding: int, kh: int, kw: int, stride: int) -> Array:
    """Gather columns for one sample, ordered (ho, wo, c, kh, kw).

    The sample is viewed as its c*h*w values followed by one zero column,
    and every padding position points at that zero column (index c*h*w).
    Gathering lays out each output position's receptive field as one row of
    the im2col matrix. The index does not depend on the batch size.
    """
    ho, wo = conv_size(h, kh, stride, padding), conv_size(w, kw, stride, padding)
    rows = (np.arange(ho) * stride - padding)[:, None, None, None, None] + np.arange(kh)[None, None, None, :, None]
    cols = (np.arange(wo) * stride - padding)[None, :, None, None, None] + np.arange(kw)[None, None, None, None, :]
    chan = np.arange(c)[None, None, :, None, None]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, (chan * h + rows) * w + cols, c * h * w).reshape(-1)
    idx.setflags(write=False)  # shared by every caller of the cache
    return idx


@functools.lru_cache(maxsize=64)
def _col2im_index(n: int, c: int, h: int, w: int, padding: int, kh: int, kw: int, stride: int) -> Array:
    """Flat position in the [n, c, h, w] input of every im2col entry, ordered (c, kh, kw, n, ho, wo).

    Entries that read padding point at the extra position n*c*h*w. In this
    order each input position meets its entries in the order of the kernel
    offsets (i, j), one entry per offset, so a bincount over the index sums
    them as a loop over the offsets would.
    """
    chw = c * h * w
    src = _im2col_index(c, h, w, padding, kh, kw, stride).reshape(-1, c * kh * kw).T[:, None, :]
    idx = np.where(src < chw, src + chw * np.arange(n)[None, :, None], n * chw).reshape(-1)
    idx.setflags(write=False)
    return idx


def _im2col(xv: Array, wv: Array, stride: int, padding: int) -> tuple[Array, tuple[int, int, int, int]]:
    """conv2d's im2col matrix [N*Ho*Wo, C*kh*kw] of xv for kernel wv, and the output shape [N,F,Ho,Wo].

    The matrix is gathered from xv viewed as [N, C*H*W]; with padding that
    view is first copied into a [N, C*H*W + 1] array whose last column is
    zero, which every padding position reads. That copy is dropped on return.
    """
    if xv.ndim != 4 or wv.ndim != 4:
        raise DimensionError(f"conv2d needs 4-d input and kernel, got {xv.shape} and {wv.shape}")
    if stride < 1 or padding < 0:
        raise ContractError(f"conv2d: stride must be >= 1 and padding >= 0, got {stride}, {padding}")
    n, c, h, wd = xv.shape
    f, cw, kh, kw = wv.shape
    if cw != c:
        raise DimensionError(f"conv2d: input has {c} channels but kernel expects {cw}")
    ho, wo = conv_size(h, kh, stride, padding), conv_size(wd, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise DimensionError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{wd + 2 * padding}"
        )

    chw = c * h * wd
    src = xv.reshape(n, chw)
    if padding:
        padded = np.empty((n, chw + 1))
        padded[:, :chw] = src
        padded[:, chw] = 0.0
        src = padded
    idx = _im2col_index(c, h, wd, padding, kh, kw, stride)
    # mode="clip" writes straight into `out`; "raise" would gather into a temporary
    cols = np.take(src, idx, axis=1, mode="clip", out=np.empty((n, idx.size)))
    return cols.reshape(n * ho * wo, c * kh * kw), (n, f, ho, wo)


def _conv_out(mat: Array, shape: tuple[int, int, int, int], bv: Array | None) -> Array:
    """The conv2d output [N,F,Ho,Wo] of the product `mat` [N*Ho*Wo, F] of im2col and kernel.

    The product is copied into the output, and the bias, spread over a row,
    is added to its [N, F*Ho*Wo] rows.
    """
    n, f, ho, wo = shape
    if bv is not None and bv.size != f:
        raise DimensionError(f"conv2d: bias has {bv.size} entries for {f} filters")
    out = np.empty(shape)
    np.copyto(out, mat.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))
    if bv is not None:
        # a transposed copy and then an add on rows beats one transposed add
        np.add(_rows(out), _spread(bv, out.shape), out=_rows(out))
    return out


def conv2d_value(xv: Array, wv: Array, stride: int = 1, padding: int = 0,
                 bv: Array | None = None) -> Array:
    """conv2d's eval forward on raw arrays: the output [N,F,Ho,Wo].

    The same gather and product as the conv2d node, but the im2col matrix,
    which only a backward needs, is dropped before the output is made.
    """
    cols, shape = _im2col(xv, wv, stride, padding)
    mat = cols @ wv.reshape(shape[1], -1).T
    del cols
    return _conv_out(mat, shape, bv)


def conv2d(x: Node, w: Node, stride: int = 1, padding: int = 0, bias: Node | None = None) -> Node:
    """2-d cross-correlation of x [N,C,H,W] with filters w [F,C,kh,kw].

    Output spatial size is conv_size(H, kh, stride, padding) per axis.
    Implemented as im2col (one gather by an index cached per geometry, see
    _im2col) + one matmul. The backward scatters the im2col gradient
    into the input gradient with one bincount over a cached index, in an
    order that sums each input position's contributions as a loop over the
    kh*kw kernel offsets, each a strided slice add, would.

    With a bias [F] this is one fused node standing for
    add(conv2d(x, w), reshape(bias, (1, F, 1, 1))): the bias is added to the
    same matmul entries, and its gradient is the same _unbroadcast sum.
    """
    cols, shape = _im2col(x.value, w.value, stride, padding)
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    _, _, ho, wo = shape
    wmat = w.value.reshape(f, c * kh * kw)
    out = _conv_out(cols @ wmat.T, shape, None if bias is None else bias.value)

    def rule(g: Array):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
        gw = (gmat.T @ cols).reshape(f, c, kh, kw) if w.requires_grad else None
        gx = None
        if x.requires_grad:
            size = n * c * h * wd
            idx = _col2im_index(n, c, h, wd, padding, kh, kw, stride)
            # rows of (gmat @ wmat) are (n, ho, wo), columns (c, kh, kw): ravel the transpose
            dcols = (gmat @ wmat).T.ravel()
            gx = np.bincount(idx, weights=dcols, minlength=size + 1)[:size].reshape(n, c, h, wd)
        if bias is None:
            return gx, gw
        gb = _unbroadcast(g, (1, f, 1, 1)).reshape(bias.shape) if bias.requires_grad else None
        return gx, gw, gb

    parents = (x, w) if bias is None else (x, w, bias)
    return Node(out, parents, rule)


def _norm_shape(shape: tuple[int, ...], gamma: Array, beta: Array) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(axes, kept): the axes batch norm reduces over and the keepdims shape
    of its statistics; gamma and beta hold one entry per channel.

    The axes are the batch axis and every axis after the channel axis, the
    layout _spread lays the statistics out in.
    """
    axes = (0, *range(2, len(shape)))
    kept = tuple(1 if i in axes else d for i, d in enumerate(shape))
    size = math.prod(kept)
    for name, p in (("gamma", gamma), ("beta", beta)):
        if p.size != size:
            raise DimensionError(f"batch_norm: {name} has {p.size} entries for statistics of shape {kept}")
    return axes, kept


def _scale_shift(xn: Array, gv: Array, bv: Array, out: Array | None = None) -> Array:
    """xn * gamma + beta, both spread over rows; `out` may be xn itself."""
    out = np.multiply(xn, gv, out=out)
    return np.add(out, bv, out=out)


def batch_norm(x: Node, gamma: Node, beta: Node, eps: float) -> tuple[Node, Array, Array]:
    """Train-mode batch normalization over the batch and spatial axes as one node.

    Returns (out, mean, var), the batch statistics in keepdims shape. Stands
    for the composition
        mu = reduce_mean(x), xc = x - mu, var = reduce_mean(xc * xc),
        out = xc * (var + eps) ** -0.5 * gamma + beta
    and replays its backward in graph order: the three contributions to xc
    sum as (g1*inv + gsq*xc) + gsq*xc before the mean path adds its share.
    Elementwise work runs on [N, C*H*W] rows against each statistic spread
    over a row; the reductions run on x's own shape, as the composition's do.
    """
    shape = x.shape
    axes, kept = _norm_shape(shape, gamma.value, beta.value)
    spread = lambda stat: _spread(stat, shape)
    sums = lambda rows: _unbroadcast(rows.reshape(shape), kept)
    xv = x.value
    count = math.prod(shape[i] for i in axes)
    mu = xv.sum(axis=axes, keepdims=True) * (1.0 / count)
    xc = _rows(xv) - spread(mu)
    var = (xc * xc).reshape(shape).sum(axis=axes, keepdims=True) * (1.0 / count)
    ve = var + eps
    inv = spread(ve ** -0.5)
    xn = xc * inv
    gv = spread(gamma.value)

    def rule(g: Array):
        g = _rows(g)
        g1 = g * gv
        gx = None
        if x.requires_grad:
            ginv = sums(g1 * xc)
            gsq = ginv * -0.5 * ve ** -1.5 * (1.0 / count)
            gsq_xc = xc * spread(gsq)
            gxc = np.multiply(g1, inv, out=g1)  # g1 is not read again
            gxc += gsq_xc
            gxc += gsq_xc
            gxc += spread(sums(-gxc) * (1.0 / count))
            gx = gxc.reshape(shape)
        gg = sums(g * xn).reshape(gamma.shape) if gamma.requires_grad else None
        gb = sums(g).reshape(beta.shape) if beta.requires_grad else None
        return gx, gg, gb

    out = _scale_shift(xn, gv, spread(beta.value))
    return Node(out.reshape(shape), (x, gamma, beta), rule), mu, var


def batch_norm_eval_value(xv: Array, gv: Array, bv: Array, mean: Array, var: Array, eps: float) -> Array:
    """Eval-mode batch norm on raw arrays, by the running statistics mean and var:
    (x - mean) * (1 / sqrt(var + eps)) * gamma + beta, on [N, C*H*W] rows
    like batch_norm."""
    shape = xv.shape
    _, kept = _norm_shape(shape, gv, bv)
    inv = 1.0 / np.sqrt(var.reshape(kept) + eps)
    rows = _rows(xv) - _spread(mean, shape)
    np.multiply(rows, _spread(inv, shape), out=rows)
    return _scale_shift(rows, _spread(gv, shape), _spread(bv, shape), out=rows).reshape(shape)
