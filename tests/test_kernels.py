"""The elementwise kernels against the plain formulas they implement.

gelu, softmax, sigmoid, softplus and the add/sub backward work in place on
scratch arrays they allocate; Rng draws its masks by integer comparison. Each
is checked here against a straightforward numpy version of the same formula,
written with one temporary per operation, bit for bit in forward and backward.
The one intended difference is the GELU cube, built as x*x*x instead of
x**3; it is compared with the x**3 form under a tolerance.

Inputs are mixed-sign, 0-d and empty arrays. Operand data and the incoming
gradient are made read-only, so a kernel that writes into them raises.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcse_forge import autograd as ag
from simcse_forge.autograd import Tensor
from simcse_forge.rng import Rng

_C = math.sqrt(2.0 / math.pi)
_EPS = np.finfo(np.float64).eps


# -- reference formulas --------------------------------------------------------

def ref_gelu(x, g, cube):
    inner = _C * (x + 0.044715 * cube(x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    dinner = _C * (1.0 + 3 * 0.044715 * x**2)
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def ref_softmax(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return out, out * (g - (g * out).sum(axis=-1, keepdims=True))


def ref_sigmoid_of(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def ref_sigmoid(x, g):
    out = ref_sigmoid_of(x)
    return out, g * out * (1.0 - out)


def ref_softplus(x, g):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), g * ref_sigmoid_of(x)


def ref_uniform(rng, shape=()):
    """Rng.uniform as 64-bit draws -> 53-bit integers -> float, from _raw."""
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    u = (rng._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return u.reshape(shape) if shape else u[0]


def ref_bernoulli(rng, keep_prob, shape=()):
    keep = np.asarray(keep_prob, dtype=np.float64)
    u = ref_uniform(rng, shape if shape else keep.shape)
    return (u < keep).astype(np.float64)


def ref_splitmix(seed, n):
    """SplitMix64 outputs one at a time with Python integers."""
    mask, state, out = (1 << 64) - 1, seed & ((1 << 64) - 1), []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


# -- helpers --------------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def frozen(arr):
    arr = np.array(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def leaf(arr, requires_grad=True):
    """A tensor whose .data is read-only, so a kernel writing into it raises."""
    t = Tensor(arr, requires_grad=requires_grad)
    t.data.flags.writeable = False
    return t


def run_unary(kernel, x, g):
    """Forward and backward of a one-operand kernel on read-only x and g."""
    y = kernel(leaf(x))
    (gx,) = y.node.backward_fn(frozen(g))
    return y.data, gx


def inputs(shape, seed=0):
    r = Rng(seed)
    x = r.normal(shape, std=3.0)
    g = r.normal(shape)
    return np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)


# -- unary kernels ------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(3, 5, 7), (), (0, 4)], ids=str)
@pytest.mark.parametrize("kernel,ref", [
    (ag.gelu, lambda x, g: ref_gelu(x, g, lambda v: v * v * v)),
    (ag.sigmoid, ref_sigmoid),
    (ag.softplus, ref_softplus),
], ids=["gelu", "sigmoid", "softplus"])
def test_unary_kernel_matches_reference_bits(kernel, ref, shape):
    x, g = inputs(shape)
    out, gx = run_unary(kernel, x, g)
    ref_out, ref_gx = ref(x, g)
    assert same_bits(out, ref_out)
    assert same_bits(gx, ref_gx)


@pytest.mark.parametrize("shape", [(3, 5, 7), (1,), (0, 4), (2, 0, 3)], ids=str)
def test_softmax_matches_reference_bits(shape):
    x, g = inputs(shape, seed=1)
    out, gx = run_unary(ag.softmax, x, g)
    ref_out, ref_gx = ref_softmax(x, g)
    assert same_bits(out, ref_out)
    assert same_bits(gx, ref_gx)


def test_softmax_masked_scores_match_reference_bits():
    x, g = inputs((2, 3, 4, 4), seed=2)
    x[..., -1] += -1e9                   # the attention mask's additive bias
    out, gx = run_unary(ag.softmax, x, g)
    ref_out, ref_gx = ref_softmax(x, g)
    assert same_bits(out, ref_out) and same_bits(gx, ref_gx)
    assert np.all(out[..., -1] == 0.0)


def test_softmax_folds_scale_and_bias_bit_for_bit():
    # softmax(a, scale, bias) against the separate multiply, add and softmax
    x, g = inputs((2, 3, 4, 4), seed=4)
    bias = np.zeros((2, 1, 1, 4))
    bias[1, ..., -2:] = -1e9
    scale = 1.0 / np.sqrt(8.0)
    out, gx = run_unary(lambda t: ag.softmax(t, scale=scale, bias=bias), x, g)
    ref_out, ref_gsum = ref_softmax(x * scale + bias, g)
    assert same_bits(out, ref_out)
    assert same_bits(gx, ref_gsum * scale)
    assert np.all(out[1, ..., -2:] == 0.0)


def test_gelu_close_to_pow_cube():
    """x*x*x differs from x**3 by about an ulp. 1 + tanh(.) cancels for
    negative x, so there the output carries an absolute error near
    ulp(1) * |x| instead of a relative one; the bound allows both."""
    x, g = inputs((4096,), seed=3)
    out, gx = run_unary(ag.gelu, x, g)
    ref_out, ref_gx = ref_gelu(x, g, lambda v: v**3)
    ax = np.abs(x)
    assert np.all(np.abs(out - ref_out) <= 1e-14 * np.abs(ref_out) + 4 * _EPS * (1 + ax))
    assert np.all(np.abs(gx - ref_gx)
                  <= 1e-14 * np.abs(ref_gx) + 4 * _EPS * np.abs(g) * (1 + ax**3))
    # some outputs differ: the kernel does not take the cube through pow
    assert 0 < np.count_nonzero(out != ref_out) < x.size // 10


def _gelu_cases():
    """GELU inputs around the 128-row block: 0-d, empty, 1/127/128/129/300
    rows, a 3-D input whose rows cross a block edge, and a transposed
    (non-contiguous) one."""
    cases = {"0d": inputs(())[0], "empty": inputs((0, 40))[0],
             "empty-width": inputs((4, 0))[0]}
    for rows in (1, 127, 128, 129, 300):
        cases[f"{rows}-rows"] = inputs((rows, 40), seed=rows)[0]
    cases["3d"] = inputs((3, 50, 40), seed=6)[0]
    cases["3d-transposed"] = inputs((4, 40, 75), seed=7)[0].transpose(0, 2, 1)
    return cases


@pytest.mark.parametrize("name", list(_gelu_cases()))
def test_blocked_gelu_matches_the_whole_array_formula_bits(name):
    x = _gelu_cases()[name]
    x.flags.writeable = False
    g = frozen(Rng(8).normal(x.shape))
    ref_out, ref_gx = ref_gelu(x, g, lambda v: v * v * v)
    for grad in (True, False):
        t = Tensor(0.0, requires_grad=grad)
        t.data = x                  # keep x's layout; Tensor() would copy it
        y = ag.gelu(t)
        assert same_bits(y.data, ref_out) and y.data.flags.c_contiguous
        if grad:
            (gx,) = y.node.backward_fn(g)
            assert same_bits(gx, ref_gx)
        with ag.no_grad():
            assert same_bits(ag.gelu(t).data, ref_out)
    assert name != "3d-transposed" or not x.flags.c_contiguous


def test_gelu_0d_returns_arrays():
    out, gx = run_unary(ag.gelu, np.array(-1.5), np.array(2.0))
    assert isinstance(out, np.ndarray) and out.shape == ()
    assert isinstance(gx, np.ndarray) and gx.shape == ()


# -- add / sub with a constant operand ----------------------------------------------

@pytest.mark.parametrize("op,sign", [(ag.add, 1.0), (ag.sub, -1.0)], ids=["add", "sub"])
def test_binary_constant_operand_gets_no_gradient(op, sign):
    x, g = inputs((2, 3, 4, 4), seed=4)
    bias = np.where(Rng(5).uniform((2, 1, 1, 4)) < 0.5, 0.0, -1e9)
    gd = frozen(g)
    y = op(leaf(x), leaf(bias, requires_grad=False))
    ga, gb = y.node.backward_fn(gd)
    assert gb is None
    assert same_bits(ga, g)
    y = op(leaf(bias, requires_grad=False), leaf(x))
    ga, gb = y.node.backward_fn(gd)
    assert ga is None
    assert same_bits(gb, sign * g)


@pytest.mark.parametrize("op", [ag.add, ag.sub], ids=["add", "sub"])
def test_binary_broadcast_gradients_match_reference_bits(op):
    x, g = inputs((2, 3, 4), seed=6)
    b, _ = inputs((3, 1), seed=7)
    gd = frozen(g)
    y = op(leaf(x), leaf(b))
    ga, gb = y.node.backward_fn(gd)
    gb_ref = (g if op is ag.add else -g).sum(axis=0).sum(axis=1, keepdims=True)
    assert same_bits(ga, g)
    assert same_bits(gb, gb_ref)


# -- SplitMix64 masks ----------------------------------------------------------------

def test_raw_matches_scalar_splitmix():
    r = Rng(2**64 - 3)
    assert [int(v) for v in r._raw(5)] == ref_splitmix(2**64 - 3, 5)
    assert [int(v) for v in r._raw(3)] == ref_splitmix(2**64 - 3, 8)[5:]


@pytest.mark.parametrize("shape", [(4, 7, 3), (5,), (), (0, 3)], ids=str)
def test_uniform_matches_reference_bits(shape):
    a, b = Rng(17), Rng(17)
    ua, ub = a.uniform(shape), ref_uniform(b, shape)
    assert type(ua) is type(ub) and same_bits(ua, ub)
    assert same_bits(a.uniform((3,)), ref_uniform(b, (3,)))


@pytest.mark.parametrize("keep", [0.0, 0.1, 0.9, 1.0, 1.0 - 2.0**-53])
@pytest.mark.parametrize("shape", [(4, 7, 3), (), (0, 3)], ids=str)
def test_bernoulli_scalar_keep_matches_reference_bits(shape, keep):
    a, b = Rng(23), Rng(23)
    ma, mb = a.bernoulli(keep, shape), ref_bernoulli(b, keep, shape)
    assert type(ma) is type(mb) and same_bits(ma, mb)
    assert same_bits(a.uniform((3,)), ref_uniform(b, (3,)))


def test_bernoulli_per_unit_keep_matches_reference_bits():
    keep = Rng(1).uniform((6, 5))
    keep[0, 0], keep[0, 1] = 0.0, 1.0
    keep = frozen(keep)
    for shape in ((6, 5), ()):
        a, b = Rng(29), Rng(29)
        ma = a.bernoulli(keep, shape)
        assert same_bits(ma, ref_bernoulli(b, keep, shape))
        assert ma[0, 0] == 0.0 and ma[0, 1] == 1.0


def test_bernoulli_draw_equal_to_keep_drops():
    u = Rng(37).uniform((64,))
    assert same_bits(Rng(37).bernoulli(u, (64,)), np.zeros(64))
    assert same_bits(Rng(37).bernoulli(np.nextafter(u, 2.0), (64,)), np.ones(64))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       shape=st.lists(st.integers(0, 6), min_size=0, max_size=3).map(tuple),
       keep=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.5, 1.5)),
       per_unit=st.booleans())
def test_bernoulli_matches_uniform_then_compare(seed, shape, keep, per_unit):
    if per_unit:
        keep = Rng(seed ^ 1).uniform(shape) * keep
    a, b = Rng(seed), Rng(seed)
    ma, mb = a.bernoulli(keep, shape), ref_bernoulli(b, keep, shape)
    assert type(ma) is type(mb) and same_bits(ma, mb)
    # the next draws (shuffles, init) start at the same stream position
    assert same_bits(a.uniform((4,)), ref_uniform(b, (4,)))
    assert a._state == b._state
