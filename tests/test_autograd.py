import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simcse_forge import autograd as ag
from simcse_forge.autograd import (
    ShapeMismatchError, Tensor, concat, embedding, finite_diff_grad, gelu,
    layer_norm, matmul, softmax,
)
from simcse_forge.encoder import _to_heads, _to_rows, pack
from simcse_forge.rng import Rng

from conftest import check_grad, rel_grad_error


def rand(rng, *shape):
    return Tensor(rng.normal(shape), requires_grad=True)


# -- matmul -------------------------------------------------------------------

def test_matmul_identity():
    out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\[2, 3\].*\[2, 2\]"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradients_match_finite_differences():
    rng = Rng(42)
    a = rand(rng, 4, 5)
    b = rand(rng, 5, 3)
    w = Tensor(rng.normal((4, 3)))  # random projection to a scalar
    check_grad(lambda t: (matmul(t, b) * w).sum(), a)
    check_grad(lambda t: (matmul(a, t) * w).sum(), b)


def test_matmul_batched_gradients():
    rng = Rng(43)
    a = rand(rng, 2, 3, 4)
    b = rand(rng, 2, 4, 3)
    w2 = rand(rng, 4, 5)
    check_grad(lambda t: (matmul(t, b) * 0.1).sum(), a)
    check_grad(lambda t: (matmul(a, t) * 0.1).sum(), b)
    # N-D by 2-D with a shared right matrix
    check_grad(lambda t: (matmul(a, t) * 0.1).sum(), w2)


# -- linear -------------------------------------------------------------------

def test_linear_gradients_match_finite_differences():
    rng = Rng(44)
    x, w, b = rand(rng, 5, 4), rand(rng, 4, 3), rand(rng, 3)
    proj = Tensor(rng.normal((5, 3)))   # random projection to a scalar
    check_grad(lambda t: (ag.linear(t, w, b) * proj).sum(), x)
    check_grad(lambda t: (ag.linear(x, t, b) * proj).sum(), w)
    check_grad(lambda t: (ag.linear(x, w, t) * proj).sum(), b)


@pytest.mark.parametrize("x_grad, b_grad", [(True, True), (False, True), (True, False)])
def test_linear_is_bit_identical_to_matmul_plus_bias(x_grad, b_grad):
    rng = Rng(45)
    arrays = (rng.normal((7, 6)), rng.normal((6, 5)), rng.normal((5,)))
    proj = rng.normal((7, 5))
    flags = (x_grad, True, b_grad)

    def run(f):
        x, w, b = (Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, flags))
        out = f(x, w, b)
        (out * Tensor(proj)).sum().backward()
        return out.data, [t.grad for t in (x, w, b)]

    fused, fused_grads = run(ag.linear)
    plain, plain_grads = run(lambda x, w, b: matmul(x, w) + b)
    assert np.array_equal(fused, plain)
    for got, want, r in zip(fused_grads, plain_grads, flags):
        assert (got is None) == (not r)
        if r:
            assert np.array_equal(got, want)


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\[2, 3\].*\[2, 2\]"):
        ag.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


# -- softmax ------------------------------------------------------------------

def test_softmax_uniform_on_constant():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_no_overflow():
    out = softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0, abs=1e-12)
    assert out.data[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_jacobian_matches_finite_differences():
    x = Tensor(Rng(7).normal((6,)), requires_grad=True)
    for k in range(6):
        check_grad(lambda t, k=k: softmax(t)[k], x)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
def test_softmax_rows_sum_to_one(x):
    out = softmax(Tensor(x)).data
    assert np.all(out >= 0)
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


# -- layer norm ---------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    out = layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized_row():
    # mean 0, variance 1 under the 1/d divisor: output is x / sqrt(1 + eps)
    eps = 1e-5
    out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=eps)
    expected = 1.0 / math.sqrt(1.0 + eps)
    assert np.allclose(out.data, [expected, -expected], rtol=0, atol=1e-15)


def test_layer_norm_gradients_match_finite_differences():
    rng = Rng(3)
    x = rand(rng, 3, 8)
    gamma = Tensor(rng.normal((8,), mean=1.0, std=0.1), requires_grad=True)
    beta = Tensor(rng.normal((8,), std=0.1), requires_grad=True)
    w = Tensor(rng.normal((3, 8)))
    check_grad(lambda t: (layer_norm(t, gamma, beta) * w).sum(), x)
    check_grad(lambda t: (layer_norm(x, t, beta) * w).sum(), gamma)
    check_grad(lambda t: (layer_norm(x, gamma, t) * w).sum(), beta)


def test_layer_norm_rejects_bad_eps_and_shapes():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=0.0)
    with pytest.raises(ShapeMismatchError):
        layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))


# -- gelu ---------------------------------------------------------------------

def test_gelu_fixed_points():
    assert gelu(Tensor(0.0)).item() == 0.0
    assert gelu(Tensor(20.0)).item() == pytest.approx(20.0, abs=1e-9)
    assert gelu(Tensor(-20.0)).item() == pytest.approx(0.0, abs=1e-9)


def test_gelu_at_one_matches_scalar_formula():
    inner = math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)
    expected = 0.5 * (1.0 + math.tanh(inner))
    assert gelu(Tensor(1.0)).item() == pytest.approx(expected, abs=1e-15)


def test_gelu_gradients_match_finite_differences():
    x = Tensor(Rng(5).normal((12,)), requires_grad=True)
    check_grad(lambda t: (gelu(t) * 0.3).sum(), x)


# -- backward engine ------------------------------------------------------------

def test_backward_of_sum_is_ones():
    x = Tensor(Rng(1).normal((3, 4)), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_hand_quadratic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_accumulates_across_consumers():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * 3.0
    loss = y.sum() + (y * y).sum()  # y feeds two consumers
    loss.backward()
    # d/dx [3x + 9x^2] = 3 + 18x
    assert np.allclose(x.grad, 3.0 + 18.0 * x.data)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * 2.0).backward()


def test_no_grad_blocks_graph():
    x = Tensor([1.0], requires_grad=True)
    with ag.no_grad():
        y = x * 2.0
    assert y.node is None and not y.requires_grad


# -- finite difference oracle ----------------------------------------------------

def test_fd_of_sum_is_ones():
    x = Tensor(Rng(2).normal((5,)))
    g = finite_diff_grad(lambda t: t.sum(), x)
    assert np.allclose(g.data, 1.0, atol=1e-8)


def test_fd_of_square_at_three():
    g = finite_diff_grad(lambda t: (t * t).sum(), Tensor([3.0]), h=1e-5)
    assert g.data[0] == pytest.approx(6.0, abs=1e-8)


def test_fd_matches_analytic_softmax_jacobian_row():
    x = Tensor([1.0, 2.0])
    g = finite_diff_grad(lambda t: softmax(t)[0], x, h=1e-5).data
    y = softmax(Tensor([1.0, 2.0])).data
    analytic = np.array([y[0] * (1 - y[0]), -y[0] * y[1]])
    assert np.allclose(g, analytic, atol=1e-9)


def test_fd_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: t.sum(), Tensor([1.0]), h=0.0)


# -- remaining primitives, against the oracle -------------------------------------

UNARY_OPS = [
    ("exp", ag.exp, (-2.0, 2.0)),
    ("log", ag.log, (0.1, 4.0)),
    ("sqrt", ag.sqrt, (0.1, 4.0)),
    ("tanh", ag.tanh, (-3.0, 3.0)),
    ("sigmoid", ag.sigmoid, (-5.0, 5.0)),
    ("softplus", ag.softplus, (-5.0, 5.0)),
    ("relu", ag.relu, (-2.0, 2.0)),
    ("abs", ag.tabs, (-2.0, 2.0)),
    ("neg", ag.neg, (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,box", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_gradients(name, op, box):
    lo, hi = box
    rng = Rng(hash(name) & 0xFFFF)
    vals = lo + (hi - lo) * rng.uniform((7,))
    # keep away from relu/abs kinks
    if name in ("relu", "abs"):
        vals = np.where(np.abs(vals) < 1e-2, 0.5, vals)
    x = Tensor(vals, requires_grad=True)
    w = Tensor(rng.normal((7,)))
    check_grad(lambda t: (op(t) * w).sum(), x)


def test_softplus_exact_at_zero_and_extremes():
    x = Tensor(np.array([0.0, 800.0, -800.0]), requires_grad=True)
    out = ag.softplus(x)
    assert out.data[0] == pytest.approx(np.log(2.0), abs=1e-15)
    assert out.data[1] == 800.0          # no overflow
    assert out.data[2] == pytest.approx(0.0, abs=1e-15)
    out.sum().backward()
    assert x.grad[0] == 0.5              # sigmoid(0), not a relu/abs subgradient


def test_binary_gradients_with_broadcasting():
    rng = Rng(77)
    a = rand(rng, 3, 4)
    b = rand(rng, 4)       # bias-style broadcast over the last axis
    s = rand(rng, 3, 1)    # row-scale broadcast
    for op in (ag.add, ag.sub, ag.mul):
        check_grad(lambda t: (op(t, b)).sum(), a)
        check_grad(lambda t: (op(a, t)).sum(), b)
        check_grad(lambda t: (op(a, t) * 0.5).sum(), s)
    bpos = Tensor(np.abs(b.data) + 1.0, requires_grad=True)
    check_grad(lambda t: ag.div(t, bpos).sum(), a)
    check_grad(lambda t: ag.div(a, t).sum(), bpos)


def test_reduction_shape_and_index_gradients():
    rng = Rng(13)
    x = rand(rng, 2, 3, 4)
    w = Tensor(rng.normal((2, 4)))
    check_grad(lambda t: (t.sum(axis=1) * w).sum(), x)
    check_grad(lambda t: (t.mean(axis=(0, 2))).sum(), x)
    check_grad(lambda t: (t.reshape(6, 4) * 0.3).sum(), x)
    check_grad(lambda t: (t.transpose(2, 0, 1) * 0.3).sum(), x)
    check_grad(lambda t: (t[:, 0, :] * w).sum(), x)
    check_grad(lambda t: (t**3.0).sum() * (1 / 50), x)
    # integer-array indexing that reads some positions more than once
    rows, cols = np.array([0, 1, 0, 0]), np.array([2, 1, 2, 3])
    v = Tensor(rng.normal((2, 4)))
    check_grad(lambda t: (t[:, rows, cols] * v).sum(), x)


def test_take_scatter_adds_repeated_indices():
    x = Tensor(np.arange(3.0), requires_grad=True)
    x[np.array([0, 0, 2])].sum().backward()
    assert np.array_equal(x.grad, [2.0, 0.0, 1.0])


def test_gather_and_scatter_rows_are_inverse_placements():
    rng = Rng(16)
    x = rand(rng, 2, 3, 4)
    index = (np.array([0, 0, 1]), np.array([0, 2, 1]))   # unique (b, t) rows
    rows = ag.gather_rows(x, index, (3, 4))
    assert np.array_equal(rows.data, x.data[index])
    back = ag.scatter_rows(rows, index, (2, 3, 4))
    assert np.array_equal(back.data[index], x.data[index])
    assert np.count_nonzero(back.data) == 3 * 4
    w = Tensor(rng.normal((3, 4)))
    check_grad(lambda t: (ag.gather_rows(t, index, (3, 4)) * w).sum(), x)
    r = rand(rng, 3, 4)
    v = Tensor(rng.normal((2, 3, 2, 2)))
    check_grad(lambda t: (ag.scatter_rows(t, index, (2, 3, 2, 2)) * v).sum(), r)
    # a 1-D index over the leading axis
    check_grad(lambda t: (ag.gather_rows(t, np.array([2, 0]), (2, 4)) * w[:2]).sum(), r)


def test_gather_and_scatter_rows_without_index_are_copy_free_reshapes():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    rows = ag.gather_rows(x, None, (6, 4))
    back = ag.scatter_rows(rows, None, (2, 3, 4))
    assert np.shares_memory(rows.data, x.data) and np.shares_memory(back.data, x.data)
    assert rows.node.op == back.node.op == "reshape"
    back.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3, 4)))


def test_concat_gradients():
    rng = Rng(14)
    a, b = rand(rng, 2, 3), rand(rng, 2, 2)
    w = Tensor(rng.normal((2, 5)))
    check_grad(lambda t: (concat([t, b], axis=1) * w).sum(), a)
    check_grad(lambda t: (concat([a, t], axis=1) * w).sum(), b)


def test_embedding_lookup_and_scatter_gradient():
    table = Tensor(Rng(15).normal((6, 3)), requires_grad=True)
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    out = embedding(table, ids)
    assert out.shape == (2, 3, 3)
    assert np.array_equal(out.data[0, 1], table.data[2])
    out.sum().backward()
    # row 2 is used twice, row 0 twice, rows 3 and 4 never
    assert np.array_equal(table.grad[2], [2.0, 2.0, 2.0])
    assert np.array_equal(table.grad[3], [0.0, 0.0, 0.0])
    check_grad(lambda t: (embedding(t, ids) * 0.5).sum(), table)


def test_embedding_bincount_backward_matches_add_at():
    rng = Rng(17)
    table = Tensor(rng.normal((12, 4)), requires_grad=True)
    # repeated ids (3 four times, 7 twice), ids never used (0, 2, 11, ...)
    ids = np.array([[3, 7, 3, 1], [9, 3, 7, 3], [5, 4, 6, 8]])
    g = rng.normal((3, 4, 4))
    (embedding(table, ids) * Tensor(g)).sum().backward()
    expected = np.zeros((12, 4))
    np.add.at(expected, ids, g)
    assert np.max(np.abs(table.grad - expected)) < 1e-12
    assert np.all(table.grad[[0, 2, 10, 11]] == 0.0)
    check_grad(lambda t: (embedding(t, ids) * Tensor(g)).sum(), table)
    # a 1-D id vector and an empty one
    table.grad = None
    (embedding(table, np.array([2, 2, 5])) * Tensor(g[0, :3])).sum().backward()
    assert np.allclose(table.grad[2], g[0, 0] + g[0, 1], atol=1e-15)
    table.grad = None
    embedding(table, np.zeros((0,), dtype=np.int64)).sum().backward()
    assert np.all(table.grad == 0.0)


# -- per-head placement of packed rows (encoder._to_heads / _to_rows) --------------

def test_rows_to_heads_without_slots_is_a_view():
    x = np.arange(24.0).reshape(6, 4)
    packing = pack(np.ones((2, 3)))
    (bucket,) = packing.buckets
    heads = _to_heads(x, bucket, 2)
    assert heads.shape == (2, 2, 3, 2) and np.shares_memory(heads, x)
    assert np.array_equal(heads[1, 0, 2], x[5, :2])
    back = _to_rows([heads], packing)
    assert np.array_equal(back, x) and np.shares_memory(back, x)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4, 3), elements=st.floats(-10, 10)))
def test_tensor_invariants(x):
    t = Tensor(x, requires_grad=True)
    assert int(np.prod(t.shape)) == t.size
    (t * t).sum().backward()
    assert t.grad.shape == t.shape


def test_determinism_of_ops():
    rng = Rng(1)
    x = Tensor(rng.normal((5, 5)))
    a = softmax(matmul(x, x)).data
    b = softmax(matmul(Tensor(x.data.copy()), Tensor(x.data.copy()))).data
    assert np.array_equal(a, b)
