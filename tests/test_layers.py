"""Layer semantics: batch norm statistics, per-task norms, presets, state dicts."""

import numpy as np
import pytest
from gradcheck import check_grads, conv_reference, fd_grad, rel_err, uniform

from qreg import tensor as T
from qreg.config import parse_config
from qreg.errors import ContractError, DataError, DimensionError
from qreg.experiments import Job, image_shape, run_job
from qreg.layers import (
    BN_EPS,
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Model,
    PerTaskNorm,
    ReLU,
    build_cnn_small,
    build_mlp_multitask,
    build_mlp_small,
    forward,
)
from qreg.regularization import weight_decay_loss


def rng_():
    return np.random.default_rng(42)


def test_dense_forward_matches_affine_oracle():
    rng = rng_()
    layer = Dense(5, 3, rng)
    x = rng.standard_normal((7, 5))
    out = layer.infer(x)
    np.testing.assert_allclose(out, x @ layer.weight.value.T + layer.bias.value, rtol=1e-12)


def test_batchnorm_train_normalizes_and_updates_running_stats():
    rng = rng_()
    layer = BatchNorm(4)
    x = rng.standard_normal((32, 4)) * 3.0 + 1.5
    out = layer.forward(T.constant(x), None).value
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-3)  # eps shifts it slightly
    # running <- 0.9*initial + 0.1*batch, with initial stats (0, 1)
    np.testing.assert_allclose(layer.running_mean, 0.1 * x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(layer.running_var, 0.9 + 0.1 * x.var(axis=0), rtol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    rng = rng_()
    layer = BatchNorm(3)
    layer.running_mean = np.array([1.0, -1.0, 0.5])
    layer.running_var = np.array([4.0, 1.0, 9.0])
    x = rng.standard_normal((5, 3))
    out = layer.infer(x)
    want = (x - layer.running_mean) / np.sqrt(layer.running_var + BN_EPS)
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_batchnorm_rejects_singleton_train_batch():
    layer = BatchNorm(3)
    with pytest.raises(ContractError):
        layer.forward(T.constant(np.zeros((1, 3))), None)
    # eval mode accepts a single example
    layer.infer(np.zeros((1, 3)))


def test_batchnorm_gradients_flow_through_batch_stats():
    rng = rng_()
    x = rng.standard_normal((6, 5))
    g0 = rng.uniform(0.5, 1.5, size=5)
    b0 = rng.uniform(-0.5, 0.5, size=5)
    layer = BatchNorm(5)
    layer.gamma.value = g0.copy()
    layer.beta.value = b0.copy()
    xn = T.parameter(x)
    out = layer.forward(xn, None)
    weights = rng.standard_normal(out.shape)
    T.backward(T.reduce_sum(T.mul(out, T.constant(weights))))

    def f(xa, ga, ba):
        mu = xa.mean(axis=0)
        var = xa.var(axis=0)
        norm = (xa - mu) / np.sqrt(var + BN_EPS)
        return float(((norm * ga + ba) * weights).sum())

    for i, grad in enumerate([xn.grad, layer.gamma.grad, layer.beta.grad]):
        fd = fd_grad(f, [x, g0, b0], i)
        assert rel_err(grad, fd) < 1e-4, f"operand {i}"


def test_batchnorm_conv_input_normalizes_per_channel():
    rng = rng_()
    layer = BatchNorm(3)
    x = rng.standard_normal((4, 3, 5, 5)) * 2.0 + 0.7
    out = layer.forward(T.constant(x), None).value
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(layer.running_mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)


def test_per_task_norm_equals_independent_single_feature_norms():
    rng = rng_()
    tasks = 4
    x = rng.standard_normal((16, tasks)) * 2.0 + 0.3
    joint = PerTaskNorm(tasks)
    joint.gamma.value = rng.uniform(0.5, 1.5, size=tasks)
    joint.beta.value = rng.uniform(-1, 1, size=tasks)
    got = joint.forward(T.constant(x), None).value
    for t in range(tasks):
        single = BatchNorm(1)
        single.gamma.value = joint.gamma.value[t : t + 1].copy()
        single.beta.value = joint.beta.value[t : t + 1].copy()
        want = single.forward(T.constant(x[:, t : t + 1]), None).value
        np.testing.assert_allclose(got[:, t : t + 1], want, rtol=1e-12)
        np.testing.assert_allclose(joint.running_mean[t : t + 1], single.running_mean, rtol=1e-12)
        np.testing.assert_allclose(joint.running_var[t : t + 1], single.running_var, rtol=1e-12)


def test_dropout_layer_contracts():
    with pytest.raises(ContractError):
        Dropout(1.0)
    layer = Dropout(0.5)
    x = T.constant(np.ones((4, 4)))
    with pytest.raises(ContractError):
        layer.forward(x, None)
    assert layer.infer(x.value) is x.value


def test_flatten_and_relu():
    x = T.constant(np.arange(24.0).reshape(2, 3, 2, 2))
    assert Flatten().forward(x, None).shape == (2, 12)
    assert Flatten().infer(x.value).shape == (2, 12)
    r = np.array([[-1.0, 2.0]])
    np.testing.assert_array_equal(ReLU().forward(T.constant(r), None).value, [[0.0, 2.0]])
    np.testing.assert_array_equal(ReLU().infer(r), [[0.0, 2.0]])


def test_mlp_small_architecture():
    m = build_mlp_small(784, 10, rng_())
    dense = [l for l in m.layers if isinstance(l, Dense)]
    assert [(d.in_features, d.out_features) for d in dense] == [(784, 256), (256, 128), (128, 10)]
    assert m.head == "softmax" and m.out_dim == 10
    out = forward(m, np.zeros((2, 784)))
    assert out.shape == (2, 10)


def test_mlp_small_dropout_insertion():
    m = build_mlp_small(20, 3, rng_(), dropout_p=0.25)
    assert sum(isinstance(l, Dropout) for l in m.layers) == 2
    m0 = build_mlp_small(20, 3, rng_(), dropout_p=0.0)
    assert sum(isinstance(l, Dropout) for l in m0.layers) == 0


def test_cnn_small_architecture_and_shapes():
    m = build_cnn_small((1, 8, 8), 5, rng_())
    convs = [l for l in m.layers if isinstance(l, Conv2d)]
    bns = [l for l in m.layers if isinstance(l, BatchNorm)]
    dense = [l for l in m.layers if isinstance(l, Dense)]
    assert len(convs) == 2 and len(bns) == 2 and len(dense) == 2
    m.train_mode = True
    out = forward(m, np.random.default_rng(0).standard_normal((3, 1, 8, 8)))
    assert out.shape == (3, 5)


@pytest.mark.parametrize("dim", range(2, 41))
def test_cnn_small_runs_on_every_image_shape(dim):
    # image_shape gives a 1 x dim strip for prime dim
    shape = image_shape(dim)
    rng = rng_()
    m = build_cnn_small(shape, 3, rng)
    x = rng.standard_normal((4, *shape))
    first_dense = next(i for i, l in enumerate(m.layers) if isinstance(l, Dense))
    flat = T.constant(x)
    for layer in m.layers[:first_dense]:
        flat = layer.forward(flat, None)
    assert flat.shape == (4, m.layers[first_dense].in_features)
    m.train_mode = True
    logits = forward(m, x, rng)
    assert logits.shape == (4, 3)
    T.backward(T.reduce_sum(logits))
    assert all(p.grad.shape == p.shape and np.isfinite(p.grad).all() for p in m.parameters())
    m.train_mode = False
    assert forward(m, x).shape == (4, 3)


def test_multitask_architecture():
    m = build_mlp_multitask(32, 12, rng_())
    assert m.head == "sigmoid" and m.out_dim == 12
    assert isinstance(m.layers[-1], PerTaskNorm)
    assert m.layers[-1].gamma.value.shape == (12,)
    out = forward(m, np.zeros((4, 32)))
    assert out.shape == (4, 12)


def test_forward_rejects_wrong_input_shape():
    m = build_mlp_small(10, 3, rng_())
    with pytest.raises(DimensionError):
        forward(m, np.zeros((2, 11)))


def test_eval_forward_keeps_no_graph():
    rng = rng_()
    model = build_cnn_small((1, 6, 6), 4, rng)
    out = forward(model, rng.standard_normal((3, 1, 6, 6)))
    assert out.parents == () and out._backward_rule is None


def conv_mlp(rng):
    """cnn-small without BatchNorm: no layer behaves differently in eval mode."""
    layers = [Conv2d(1, 4, 3, rng, padding=1), ReLU(), Conv2d(4, 6, 3, rng, stride=2, padding=1),
              ReLU(), Flatten(), Dense(6 * 3 * 3, 5, rng)]
    return Model(layers, "softmax", 5, (1, 6, 6))


@pytest.mark.parametrize("build,shape", [(lambda rng: build_mlp_small(12, 5, rng), (7, 12)),
                                         (conv_mlp, (7, 1, 6, 6))])
def test_eval_forward_is_bitwise_the_train_graph(build, shape):
    rng = rng_()
    model = build(rng)
    x = rng.standard_normal(shape)
    model.train_mode = True
    graph = forward(model, x)
    assert graph.parents
    model.train_mode = False
    np.testing.assert_array_equal(forward(model, x).value, graph.value, strict=True)


def test_state_dict_round_trip_and_errors():
    rng = rng_()
    m = build_cnn_small((1, 6, 6), 4, rng)
    m.train_mode = True
    forward(m, rng.standard_normal((4, 1, 6, 6)))  # move running stats off init
    m.train_mode = False
    state = m.state_dict()

    m2 = build_cnn_small((1, 6, 6), 4, np.random.default_rng(7))
    m2.load_state_dict(state)
    for (_, a), (_, b) in zip(m.named_parameters(), m2.named_parameters()):
        np.testing.assert_array_equal(a.value, b.value)
    x = rng.standard_normal((2, 1, 6, 6))
    np.testing.assert_array_equal(forward(m, x).value, forward(m2, x).value)

    bad = dict(state)
    bad.pop(next(iter(bad)))
    with pytest.raises(DataError):
        m2.load_state_dict(bad)
    bad2 = dict(state)
    first = next(iter(bad2))
    bad2[first] = np.zeros((1, 2, 3))
    with pytest.raises(DimensionError):
        m2.load_state_dict(bad2)


def test_model_rejects_unknown_head():
    with pytest.raises(ContractError):
        Model([], "linear", 3, (4,))


def test_weight_nodes_excludes_norm_and_bias():
    m = build_cnn_small((1, 6, 6), 4, rng_())
    weights = m.weight_nodes()
    assert len(weights) == 4  # two conv kernels, two dense matrices
    assert all(w.value.ndim >= 2 for w in weights)


# ------------------------------------------- fused nodes vs composed graphs
#
# Dense, Conv2d and BatchNorm each run on one fused node. The compositions of
# elementary T.* ops below are what those nodes replaced; they are the
# reference, and the fused nodes must match them bit for bit: outputs,
# running statistics and every gradient.


def composed_dense(layer, x, weight):
    return T.add(T.matmul(x, T.transpose(weight)), layer.bias)


def composed_conv(layer, x, weight):
    out = T.conv2d(x, weight, layer.stride, layer.padding)
    return T.add(out, T.reshape(layer.bias, (1, layer.out_channels, 1, 1)))


def composed_batchnorm(layer, x, train_mode):
    pshape = (1, layer.dim) if x.value.ndim == 2 else (1, layer.dim, 1, 1)
    axes = (0,) if x.value.ndim == 2 else (0, 2, 3)
    gamma = T.reshape(layer.gamma, pshape)
    beta = T.reshape(layer.beta, pshape)
    if train_mode:
        mu = T.reduce_mean(x, axis=axes, keepdims=True)
        xc = T.sub(x, mu)
        var = T.reduce_mean(T.mul(xc, xc), axis=axes, keepdims=True)
        m = layer.momentum
        layer.running_mean = m * layer.running_mean + (1.0 - m) * mu.value.reshape(layer.dim)
        layer.running_var = m * layer.running_var + (1.0 - m) * var.value.reshape(layer.dim)
        inv = T.power(T.add(var, T.constant(layer.eps)), -0.5)
        return T.add(T.mul(T.mul(xc, inv), gamma), beta)
    rm = T.constant(layer.running_mean.reshape(pshape))
    inv = T.constant(1.0 / np.sqrt(layer.running_var.reshape(pshape) + layer.eps))
    return T.add(T.mul(T.mul(T.sub(x, rm), inv), gamma), beta)


def run_layer(layer, x, forward_fn, decay=0.0):
    """Forward x through forward_fn, backprop a fixed weighting; values and grads.

    With decay > 0 the loss adds weight decay on the layer's weight, which then
    collects gradient from the data path and from both factors of W*W.
    """
    xn = T.parameter(x.copy())
    out = forward_fn(layer, xn)
    weights = np.random.default_rng(3).standard_normal(out.shape)
    loss = T.reduce_sum(T.mul(out, T.constant(weights)))
    if decay:
        loss = T.add(loss, weight_decay_loss([layer.weight], decay))
    T.backward(loss)
    got = {"out": out.value, "x.grad": xn.grad}
    for name, p in layer.named_parameters():
        got[f"{name}.grad"] = p.grad
    for name, buf in layer.named_buffers():
        got[name] = buf
    return got


def assert_same_bits(fused, composed):
    assert fused.keys() == composed.keys()
    for key in fused:
        np.testing.assert_array_equal(fused[key], composed[key], err_msg=key, strict=True)


@pytest.mark.parametrize("decay", [0.0, 0.01])
def test_dense_node_is_bitwise_the_composed_graph(decay):
    x = np.random.default_rng(0).standard_normal((33, 20))
    make = lambda: Dense(20, 7, np.random.default_rng(1))
    fused = run_layer(make(), x, lambda l, xn: l.forward(xn, None), decay)
    composed = run_layer(make(), x, lambda l, xn: composed_dense(l, xn, l.weight), decay)
    assert_same_bits(fused, composed)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("decay", [0.0, 0.01])
def test_conv_node_is_bitwise_the_composed_graph(stride, padding, decay):
    x = np.random.default_rng(0).standard_normal((5, 3, 7, 6))
    make = lambda: Conv2d(3, 4, 3, np.random.default_rng(1), stride=stride, padding=padding)
    fused = run_layer(make(), x, lambda l, xn: l.forward(xn, None), decay)
    composed = run_layer(make(), x, lambda l, xn: composed_conv(l, xn, l.weight), decay)
    assert_same_bits(fused, composed)


def legacy_im2col_conv(x, w, stride, padding):
    """conv2d's former im2col (np.pad + sliding windows) and matmul."""
    n, c, _, _ = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    out = (cols @ w.reshape(f, c * kh * kw).T).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(out)


@pytest.mark.parametrize("stride,padding,shape", [(1, 1, (4, 1, 4, 8)), (2, 1, (4, 8, 4, 8)),
                                                   (1, 0, (3, 2, 5, 5)), (2, 0, (3, 2, 6, 7))])
def test_conv_im2col_is_bitwise_the_padded_window_view(stride, padding, shape):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((6, shape[1], 3, 3))
    got = T.conv2d(T.constant(x), T.constant(w), stride, padding).value
    np.testing.assert_array_equal(got, legacy_im2col_conv(x, w, stride, padding), strict=True)


def slice_loop_cols(x, kh, kw, stride, padding):
    """conv2d's former im2col: one strided slice copy per kernel offset."""
    n, c, h, wd = x.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    xp = np.zeros((n, c, hp, wp))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    cols = np.empty((n, ho, wo, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            cols[..., i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride].transpose(0, 2, 3, 1)
    return cols.reshape(n * ho * wo, c * kh * kw), (ho, wo)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("c", [1, 3])
def test_conv_im2col_gather_is_bitwise_the_slice_loop(stride, padding, c):
    rng = np.random.default_rng(6)
    f, kh, kw = 4, 3, 2
    w = rng.standard_normal((f, c, kh, kw))
    index = T._im2col_index(c, 6, 7, padding, kh, kw, stride)
    for n in (5, 2):  # both batch sizes use the one cached index
        assert T._im2col_index(c, 6, 7, padding, kh, kw, stride) is index
        x = rng.standard_normal((n, c, 6, 7))
        cols, (ho, wo) = slice_loop_cols(x, kh, kw, stride, padding)
        src = np.concatenate([x.reshape(n, -1), np.zeros((n, 1))], axis=1)  # padding reads the last column
        np.testing.assert_array_equal(np.take(src, index, axis=1).reshape(cols.shape), cols, strict=True)
        wn = T.parameter(w)
        out = T.conv2d(T.constant(x), wn, stride, padding)
        expected = (cols @ w.reshape(f, -1).T).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)
        np.testing.assert_array_equal(out.value, np.ascontiguousarray(expected), strict=True)
        g = rng.standard_normal(out.shape)
        T.backward(T.reduce_sum(T.mul(out, T.constant(g))))
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, f)
        np.testing.assert_array_equal(wn.grad, (gmat.T @ cols).reshape(w.shape), strict=True)


def padded_gather_conv(x, w, b, stride, padding):
    """conv2d's former forward: a zero-padded copy of x, an index over its
    padded layout, the bias added to the matmul result, then copied to NCHW.
    Returns (out, cols)."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    xp = np.zeros((n, c, hp, wp))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    rows = (np.arange(ho) * stride)[:, None, None, None, None] + np.arange(kh)[None, None, None, :, None]
    cols = (np.arange(wo) * stride)[None, :, None, None, None] + np.arange(kw)[None, None, None, None, :]
    chan = np.arange(c)[None, None, :, None, None]
    index = ((chan * hp + rows) * wp + cols).reshape(-1)
    cols = np.take(xp.reshape(n, -1), index, axis=1).reshape(n * ho * wo, c * kh * kw)
    mat = cols @ w.reshape(f, -1).T
    mat += b
    return np.ascontiguousarray(mat.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)), cols


def slice_loop_input_grad(g, w, x_shape, stride, padding):
    """conv2d's former input gradient: one strided slice add per kernel offset
    into a zero-padded buffer, in (i, j) order, then the interior."""
    n, c, h, wd = x_shape
    f, _, kh, kw = w.shape
    _, _, ho, wo = g.shape
    gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
    dcols = (gmat @ w.reshape(f, -1)).reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[..., i, j]
    return dxp[:, :, padding : padding + h, padding : padding + wd]


def assert_same_int64(got, want):
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                                  np.ascontiguousarray(want).view(np.int64), strict=True)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kh,kw", [(1, 1), (3, 2), (3, 3), (5, 5)])
def test_conv_kernels_are_bitwise_the_padded_gather_and_slice_loop(stride, padding, kh, kw):
    rng = np.random.default_rng(stride * 100 + padding * 10 + kh)
    for c in (1, 3):
        w = rng.standard_normal((4, c, kh, kw))
        b = rng.standard_normal(4)
        for n in (1, 2, 64, 37):  # 37: a tail batch
            x = rng.standard_normal((n, c, 6, 7))
            x[0, 0, 0, 0] = -0.0
            want, cols = padded_gather_conv(x, w, b, stride, padding)
            got, _ = T.conv2d_value(x, w, stride, padding, b)
            assert_same_int64(got, want)
            xn, wn, bn = T.parameter(x), T.parameter(w), T.parameter(b)
            out = T.conv2d(xn, wn, stride, padding, bias=bn)
            assert_same_int64(out.value, want)
            g = rng.standard_normal(out.shape)
            T.backward(T.reduce_sum(T.mul(out, T.constant(g))))
            gmat = g.transpose(0, 2, 3, 1).reshape(-1, 4)
            assert_same_int64(xn.grad, slice_loop_input_grad(g, w, x.shape, stride, padding))
            assert_same_int64(wn.grad, (gmat.T @ cols).reshape(w.shape))
            assert_same_int64(bn.grad, T._unbroadcast(g, (1, 4, 1, 1)).reshape(4))
            assert xn.grad.flags.c_contiguous


BN_CASES = [
    (BatchNorm, 5, (9, 5)),
    (BatchNorm, 3, (4, 3, 5, 6)),
    (BatchNorm, 4, (6, 4, 1, 1)),  # spatial axes of size 1
    (BatchNorm, 2, (5, 2, 3, 1)),
    (BatchNorm, 1, (7, 1)),
    (PerTaskNorm, 6, (11, 6)),
]


def _bn_layer(cls, dim, seed=2):
    layer = cls(dim)
    rng = np.random.default_rng(seed)
    layer.gamma.value = rng.uniform(0.5, 1.5, size=dim)
    layer.beta.value = rng.uniform(-0.5, 0.5, size=dim)
    layer.running_mean = rng.standard_normal(dim)
    layer.running_var = rng.uniform(0.5, 2.0, size=dim)
    return layer


@pytest.mark.parametrize("train_mode", [True, False])
@pytest.mark.parametrize("cls,dim,shape", BN_CASES)
def test_batchnorm_node_is_bitwise_the_composed_graph(cls, dim, shape, train_mode):
    x = np.random.default_rng(0).standard_normal(shape) * 2.0 + 0.4
    if not train_mode:  # eval mode builds no graph: infer against the composed graph's value
        layer, ref = _bn_layer(cls, dim), _bn_layer(cls, dim)
        got = {"out": layer.infer(x), **dict(layer.named_buffers())}
        want = {"out": composed_batchnorm(ref, T.constant(x), False).value, **dict(ref.named_buffers())}
        assert_same_bits(got, want)
        return
    fused = run_layer(_bn_layer(cls, dim), x, lambda l, xn: l.forward(xn, None))
    composed = run_layer(_bn_layer(cls, dim), x, lambda l, xn: composed_batchnorm(l, xn, True))
    assert_same_bits(fused, composed)


def test_batchnorm_node_without_input_gradient():
    # a constant input: only gamma and beta need gradients
    x = np.random.default_rng(0).standard_normal((8, 3, 2, 2))
    results = []
    for fn in (lambda l, xn: l.forward(xn, None), lambda l, xn: composed_batchnorm(l, xn, True)):
        layer = _bn_layer(BatchNorm, 3)
        out = fn(layer, T.constant(x))
        T.backward(T.reduce_sum(T.mul(out, T.constant(np.cos(out.value)))))
        results.append({"out": out.value, "gamma": layer.gamma.grad, "beta": layer.beta.grad})
    assert_same_bits(*results)


COMPOSED_LAYERS = {
    (Dense, "forward_with"): composed_dense,
    (Conv2d, "forward_with"): composed_conv,
    (BatchNorm, "forward"): lambda self, x, rng: composed_batchnorm(self, x, True),
}

TRAIN_INI = """
[experiment]
seeds = 0

[data]
kind = {kind}
num_classes = 4
num_tasks = 3
dim = 16
train_size = 160
test_size = 40

[model]
preset = {preset}

[training]
epochs = 2
batch_size = 32

[quantization]
keep_batchnorm = true
"""


@pytest.mark.parametrize("preset,kind", [("cnn-small", "blobs"), ("mlp-small", "blobs"),
                                         ("mlp-multitask", "multitask")])
@pytest.mark.parametrize("mode", ["none", "weight_decay", "quantization"])
def test_training_run_is_bitwise_the_composed_graph_run(preset, kind, mode, monkeypatch):
    cfg = parse_config(TRAIN_INI.format(preset=preset, kind=kind))
    job = Job(cfg=cfg, mode=mode, noise=0.2, seed=0)
    fused = run_job(job)
    for (cls, attr), fn in COMPOSED_LAYERS.items():
        monkeypatch.setattr(cls, attr, fn)
    composed = run_job(job)
    assert not fused.failed and not composed.failed
    assert fused.record.rows == composed.record.rows
    assert fused.state.keys() == composed.state.keys()
    for name in fused.state:
        np.testing.assert_array_equal(fused.state[name], composed.state[name], err_msg=name, strict=True)


def test_fused_nodes_match_finite_differences():
    rng = np.random.default_rng(11)
    check_grads(T.linear, lambda x, w, b: x @ w.T + b,
                [uniform(rng, (6, 4)), uniform(rng, (3, 4)), uniform(rng, (3,))], rng)
    for stride, padding in ((1, 0), (1, 1), (2, 1)):
        check_grads(
            lambda x, w, b: T.conv2d(x, w, stride, padding, bias=b),
            lambda x, w, b: conv_reference(x, w, stride, padding) + b.reshape(1, -1, 1, 1),
            [uniform(rng, (2, 2, 5, 5)), uniform(rng, (3, 2, 3, 3)), uniform(rng, (3,))],
            rng,
        )

    def bn_np(x, g, b, axes):
        kept = tuple(1 if i in axes else d for i, d in enumerate(x.shape))
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        return (x - mu) / np.sqrt(var + BN_EPS) * g.reshape(kept) + b.reshape(kept)

    for shape, axes in (((7, 3), (0,)), ((4, 2, 3, 3), (0, 2, 3))):
        args = [uniform(rng, shape), uniform(rng, (shape[1],), 0.5, 1.5), uniform(rng, (shape[1],))]
        check_grads(lambda x, g, b: T.batch_norm(x, g, b, BN_EPS)[0],
                    lambda x, g, b: bn_np(x, g, b, axes), args, rng)


def test_fused_nodes_keep_the_shape_checks():
    c = T.constant
    with pytest.raises(DimensionError):
        T.linear(c(np.zeros((2, 3))), c(np.zeros((4, 5))), c(np.zeros(4)))  # inner dims
    with pytest.raises(DimensionError):
        T.linear(c(np.zeros((2, 3, 1))), c(np.zeros((4, 3))), c(np.zeros(4)))  # 3-d input
    with pytest.raises(DimensionError):
        T.linear(c(np.zeros((2, 3))), c(np.zeros(3)), c(np.zeros(1)))  # 1-d weight
    with pytest.raises(DimensionError):
        T.linear(c(np.zeros((2, 3))), c(np.zeros((4, 3))), c(np.zeros(5)))  # bias width
    with pytest.raises(DimensionError):
        T.conv2d(c(np.zeros((1, 2, 4, 4))), c(np.zeros((3, 2, 2, 2))), bias=c(np.zeros(2)))
    with pytest.raises(DimensionError, match="larger than padded input 1x3"):
        T.conv2d(c(np.zeros((1, 1, 1, 3))), c(np.zeros((1, 1, 3, 3))), 1, 0)  # kernel 3 vs height 1
    with pytest.raises(DimensionError):
        T.batch_norm(c(np.zeros((4, 3))), c(np.ones(2)), c(np.zeros(3)), BN_EPS)
    with pytest.raises(DimensionError):
        Dense(3, 2, rng_()).forward(c(np.zeros((4, 5))), None)
    with pytest.raises(DimensionError):
        BatchNorm(3).forward(c(np.zeros((4, 3, 2))), None)
    with pytest.raises(DimensionError):
        BatchNorm(3).infer(np.zeros((4, 2)))
