"""Gradient and shape checks for the autodiff core.

Oracle: central finite differences with step h = 1e-5 on the scalar loss
sum(output * R) for a fixed random weighting R. Backward-pass gradients must
match with relative error below 1e-4. Inputs are drawn from [-2, 2], nudged
away from non-differentiable points where an op has them.
"""

import numpy as np
import pytest
from gradcheck import away_from, check_grads, conv_reference, uniform

from qreg import tensor as T
from qreg.errors import ContractError, DimensionError, DomainError


def test_harness_anchor_gradient_of_weighted_sum():
    # d/dx sum(x * R) = R, exactly; validates the harness plumbing itself
    rng = np.random.default_rng(0)
    x = T.parameter(uniform(rng, (4, 3)))
    weights = rng.standard_normal((4, 3))
    loss = T.reduce_sum(T.mul(x, T.constant(weights)))
    T.backward(loss)
    np.testing.assert_allclose(x.grad, weights, rtol=0, atol=1e-15)


@pytest.mark.parametrize("shapes", [((4, 3), (4, 3)), ((4, 3), (3,)), ((2, 3, 4), (1, 4))])
def test_add_sub_mul_grads(shapes):
    rng = np.random.default_rng(1)
    for op_node, op_np in [(T.add, np.add), (T.sub, np.subtract), (T.mul, np.multiply)]:
        for _ in range(5):
            arrays = [uniform(rng, s) for s in shapes]
            check_grads(op_node, op_np, arrays, rng)


def test_matmul_grads():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = uniform(rng, (4, 6))
        b = uniform(rng, (6, 3))
        check_grads(T.matmul, np.matmul, [a, b], rng)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_grads(stride, padding):
    rng = np.random.default_rng(3)

    def conv_np(x, w):
        return conv_reference(x, w, stride, padding)

    for _ in range(3):
        x = uniform(rng, (2, 2, 5, 5))
        w = uniform(rng, (3, 2, 3, 3))
        check_grads(lambda xn, wn: T.conv2d(xn, wn, stride, padding), conv_np, [x, w], rng)


def test_conv2d_matches_reference_values():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 7, 6))
    w = rng.standard_normal((5, 4, 3, 2))
    for stride, padding in [(1, 0), (2, 1), (3, 2)]:
        got = T.conv2d(T.constant(x), T.constant(w), stride, padding).value
        want = conv_reference(x, w, stride, padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_output_shape_formula():
    x = T.constant(np.zeros((1, 1, 9, 9)))
    w = T.constant(np.zeros((2, 1, 3, 3)))
    assert T.conv2d(x, w, stride=2, padding=1).shape == (1, 2, 5, 5)


def test_unary_op_grads():
    rng = np.random.default_rng(5)
    cases = [
        (T.relu, lambda v: np.maximum(v, 0.0), lambda v: away_from(v, [0.0])),
        (T.sigmoid, lambda v: 1.0 / (1.0 + np.exp(-v)), lambda v: v),
        (T.exp, np.exp, lambda v: v),
        (T.log, np.log, lambda v: np.abs(v) + 0.1),
        (lambda n: T.power(n, 3.0), lambda v: v**3.0, lambda v: v),
        (lambda n: T.power(n, -0.5), lambda v: v**-0.5, lambda v: np.abs(v) + 0.5),
        (lambda n: T.clamp(n, -1.0, 1.0), lambda v: np.clip(v, -1.0, 1.0), lambda v: away_from(v, [-1.0, 1.0])),
    ]
    for op_node, op_np, prep in cases:
        for _ in range(5):
            arr = prep(uniform(rng, (4, 5)))
            check_grads(op_node, op_np, [arr], rng)


def test_reduction_and_shape_op_grads():
    rng = np.random.default_rng(6)
    cases = [
        (lambda n: T.reduce_sum(n), lambda v: np.array(v.sum())),
        (lambda n: T.reduce_sum(n, axis=0), lambda v: v.sum(axis=0)),
        (lambda n: T.reduce_sum(n, axis=1, keepdims=True), lambda v: v.sum(axis=1, keepdims=True)),
        (lambda n: T.reduce_mean(n, axis=0), lambda v: v.mean(axis=0)),
        (lambda n: T.reduce_mean(n), lambda v: np.array(v.mean())),
        (lambda n: T.reshape(n, (2, 10)), lambda v: v.reshape(2, 10)),
        (lambda n: T.transpose(n), lambda v: v.T),
    ]
    for op_node, op_np in cases:
        for _ in range(4):
            arr = uniform(rng, (4, 5))
            check_grads(op_node, op_np, [arr], rng)


def test_relu_gradient_is_zero_at_zero():
    x = T.parameter(np.array([[-1.0, 0.0, 2.0]]))
    T.backward(T.reduce_sum(T.relu(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_clamp_gradient_closed_interval():
    x = T.parameter(np.array([-1.5, -1.0, 0.0, 1.0, 1.5]))
    T.backward(T.reduce_sum(T.clamp(x, -1.0, 1.0)))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])


def test_diamond_graph_accumulates_additively():
    # out = z + z with z = x*x must give d(out)/dx = 4x
    x = T.parameter(np.array([1.5, -2.0, 0.25]))
    z = T.mul(x, x)
    out = T.reduce_sum(T.add(z, z))
    T.backward(out)
    np.testing.assert_allclose(x.grad, 4.0 * x.value, rtol=1e-12)


def test_grad_accumulates_across_backward_calls():
    x = T.parameter(np.array([2.0]))
    loss = T.reduce_sum(T.mul(x, x))
    T.backward(loss)
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [8.0])
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [0.0])


def test_backward_twice_never_mutates_a_stored_gradient():
    # add and straight_through hand the upstream gradient on as is, so after
    # one pass x, st and z may hold one shared, uncopied gradient array
    rng = np.random.default_rng(9)
    x = T.parameter(rng.uniform(-2, 2, size=(3, 4)))
    b = T.parameter(rng.uniform(-2, 2, size=(3, 4)))
    st = T.straight_through(x, np.round)
    z = T.add(st, b)
    weights = rng.standard_normal((3, 4))
    loss = T.reduce_sum(T.mul(z, T.constant(weights)))
    T.backward(loss)
    nodes = (x, b, st, z)
    first = [n.grad for n in nodes]
    saved = [g.copy() for g in first]
    T.backward(loss)
    for node, g, before in zip(nodes, first, saved):
        np.testing.assert_array_equal(g, before)  # the first pass's array is intact
        np.testing.assert_array_equal(node.grad, 2.0 * weights)
        assert node.grad is not g


def test_straight_through_passes_gradient_bitwise():
    rng = np.random.default_rng(7)
    x = T.parameter(rng.uniform(-2, 2, size=(6, 4)))
    st = T.straight_through(x, lambda v: np.sign(v))
    weights = rng.standard_normal((6, 4))
    T.backward(T.reduce_sum(T.mul(st, T.constant(weights))))
    assert np.array_equal(x.grad, weights)
    np.testing.assert_array_equal(st.value, np.sign(x.value))


def test_straight_through_identity_forward_matches_fd():
    rng = np.random.default_rng(8)
    check_grads(
        lambda n: T.straight_through(n, lambda v: v),
        lambda v: v,
        [uniform(rng, (3, 3))],
        rng,
    )


def test_constant_subgraphs_get_no_gradient():
    x = T.parameter(np.array([1.0, 2.0]))
    c = T.constant(np.array([3.0, 4.0]))
    out = T.reduce_sum(T.mul(x, c))
    T.backward(out)
    assert not c.requires_grad
    np.testing.assert_array_equal(c.grad, [0.0, 0.0])  # untouched, reads as zeros


def test_deep_chain_does_not_recurse():
    x = T.parameter(np.array([0.001]))
    y = x
    for _ in range(5000):
        y = T.add(y, T.constant(np.array([0.0])))
    T.backward(T.reduce_sum(y))
    np.testing.assert_allclose(x.grad, [1.0])


def test_error_conditions():
    a = T.constant(np.zeros((2, 3)))
    b = T.constant(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        T.matmul(a, b)
    with pytest.raises(DimensionError):
        T.add(T.constant(np.zeros((2, 3))), T.constant(np.zeros((4,))))
    with pytest.raises(DomainError):
        T.log(T.constant(np.array([1.0, -1.0])))
    with pytest.raises(DomainError):
        T.power(T.constant(np.array([-1.0])), 0.5)
    with pytest.raises(ContractError):
        T.clamp(a, 2.0, 2.0)
    with pytest.raises(ContractError):
        T.backward(T.parameter(np.zeros((2, 2))))
    with pytest.raises(ContractError):
        T.straight_through(a, lambda v: v[:1])
    with pytest.raises(DimensionError):
        T.conv2d(T.constant(np.zeros((1, 1, 2, 2))), T.constant(np.zeros((1, 1, 5, 5))))
    with pytest.raises(DimensionError):
        T.conv2d(T.constant(np.zeros((1, 2, 4, 4))), T.constant(np.zeros((1, 3, 2, 2))))
    with pytest.raises(DimensionError):
        T.reshape(a, (7, 7))


def test_values_are_float64_and_c_order():
    n = T.constant(np.array([[1, 2], [3, 4]], dtype=np.int32).T)
    assert n.value.dtype == np.float64
    assert n.value.flags["C_CONTIGUOUS"]


def _sigmoid_by_masks(v):
    """The former sigmoid_value, branch by boolean mask: the bitwise reference."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_value_is_bitwise_the_masked_form():
    rng = np.random.default_rng(0)
    cases = [rng.standard_normal((rng.integers(1, 40), rng.integers(1, 13))) * 10.0 ** rng.uniform(-3, 3)
             for _ in range(100)]
    nan_payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)
    cases.append(np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
         745.0, -745.0, 746.0, -746.0, 1e308, -1e308, 36.7, -36.7], nan_payload]))
    cases.append(np.array(-3.0))
    for v in cases:
        with np.errstate(all="ignore"):
            want, got = _sigmoid_by_masks(v), T.sigmoid_value(v)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), strict=True)


def test_straight_through_keeps_a_fortran_order_image():
    w = T.parameter(np.arange(12.0).reshape(3, 4))
    w.value = np.asfortranarray(w.value)
    st = T.straight_through(w, lambda v: v * 2.0)
    assert st.value.flags.f_contiguous
    np.testing.assert_array_equal(st.value, np.arange(12.0).reshape(3, 4) * 2.0)
    # a C-order or non-contiguous result is made C-contiguous as any value is
    assert T.straight_through(w, lambda v: np.ascontiguousarray(v)).value.flags.c_contiguous
    assert T.straight_through(w, lambda v: np.tile(v, 2)[:, ::2]).value.flags.c_contiguous
