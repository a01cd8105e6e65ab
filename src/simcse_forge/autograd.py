"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tensor wraps a C-contiguous numpy float64 array plus an optional node in
the computation graph (parent tensors and a backward rule). Calling
``backward()`` on a scalar loss walks the graph in reverse topological order
and accumulates gradients additively into every reachable tensor that
requires them.

Everything is float64: the test suite rests on central finite differences,
which are not trustworthy at single precision.

Gradient arrays are never mutated in place, because a backward rule may hand
its parent a view of the incoming gradient. Kernels that work in place follow
one rule: they write only into arrays they allocated themselves, never into
an operand's ``.data`` or an incoming gradient ``g``.

Broadcasting in elementwise binary ops follows numpy semantics; the backward
pass sum-reduces gradients over broadcast axes. The rest of the op set is the
minimum a small transformer needs: matmul (2-D, batched, and N-D by 2-D),
softmax over the last axis, layer norm, GELU, elementwise functions,
reductions, reshapes, concatenation, basic slicing, embedding lookup, the
gather/scatter of unique rows that moves packed token rows in and out of a
padded [B, T, ...] layout, and the placement of packed rows into per-head
attention blocks and back.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (evaluation passes)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Node:
    __slots__ = ("parents", "backward_fn", "op")

    def __init__(self, parents, backward_fn, op=""):
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op


class Tensor:
    """Dense float64 array with optional gradient and graph back-reference."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.grad = None
        t.requires_grad = False
        t.node = None
        return t

    def copy(self, requires_grad: bool | None = None) -> "Tensor":
        return Tensor(self.data.copy(),
                      self.requires_grad if requires_grad is None else requires_grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"

    # -- graph traversal ---------------------------------------------------

    def backward(self) -> None:
        """Populate .grad on every reachable requires_grad tensor.

        The loss must be a scalar. Gradients accumulate additively when a
        tensor feeds several consumers.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {list(self.shape)}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no gradient path")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                for p in t.node.parents:
                    if p.requires_grad and id(p) not in seen:
                        stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t.node is None or t.grad is None:
                continue
            for p, g in zip(t.node.parents, t.node.backward_fn(t.grad)):
                if g is None or not p.requires_grad:
                    continue
                # never mutate gradient arrays in place: views may be shared
                p.grad = g if p.grad is None else p.grad + g

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return powc(self, exponent)

    def __getitem__(self, index):
        return take(self, index)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def abs(self):
        return tabs(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap(data: np.ndarray) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = False
    t.node = None
    return t


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable, op: str = "") -> Tensor:
    out = _wrap(np.asarray(data, dtype=np.float64))
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = Node(tuple(parents), backward_fn, op)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a gradient back to the pre-broadcast operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise binary ops -------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), backward, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def powc(a, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = as_tensor(a)
    c = float(exponent)
    out = a.data ** c

    def backward(g):
        return (g * c * a.data ** (c - 1.0),)

    return _make(out, (a,), backward, "pow")


# -- matmul ------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product.

    Supported shapes: [m,k] @ [k,n]; [...,m,k] @ [k,n] (shared right-hand
    matrix, e.g. hidden states times a weight); [...,m,k] @ [...,k,n] with
    identical leading batch dims (per-head attention).
    """
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs 2-D+ operands, got {list(sa)} @ {list(sb)}")
    if sa[-1] != sb[-2]:
        raise ShapeMismatchError(f"matmul inner dims disagree: {list(sa)} @ {list(sb)}")
    if b.ndim > 2 and sa[:-2] != sb[:-2]:
        raise ShapeMismatchError(f"matmul batch dims disagree: {list(sa)} @ {list(sb)}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if b.ndim == 2:
                k, n = sb
                gb = np.matmul(a.data.reshape(-1, k).T, g.reshape(-1, n))
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ga, gb

    return _make(out, (a, b), backward, "matmul")


# -- reductions ---------------------------------------------------------------

def _restore_axes(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if not keepdims:
        if axis is None:
            g = g.reshape((1,) * len(shape))
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(ax % len(shape) for ax in axes)
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        return (_restore_axes(g, a.shape, axis, keepdims).copy(),)

    return _make(out, (a,), backward, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / max(out.size, 1)

    def backward(g):
        return (_restore_axes(g, a.shape, axis, keepdims) / count,)

    return _make(out, (a,), backward, "mean")


# -- shape ops ----------------------------------------------------------------

def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), backward, "reshape")


def transpose(a, *axes) -> Tensor:
    a = as_tensor(a)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)
    out = a.data.transpose(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _make(out, (a,), backward, "transpose")


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), backward, "concat")


def take(a, index) -> Tensor:
    """Basic (int/slice) indexing, or integer-array indexing, with
    scatter-add backward: a position read k times gets k gradients."""
    a = as_tensor(a)
    out = a.data[index]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        return (ga,)

    return _make(out, (a,), backward, "take")


def gather_rows(a, index, shape) -> Tensor:
    """``a[index]`` reshaped to shape, where index picks rows over a's leading
    axes (an int array, or a tuple of them) and names each row at most once,
    so backward is an indexed assignment. index None picks every row in
    order: a plain reshape, no copy."""
    if index is None:
        return reshape(a, shape)
    a = as_tensor(a)
    picked = a.data[index]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[index] = g.reshape(picked.shape)
        return (ga,)

    return _make(picked.reshape(shape), (a,), backward, "gather_rows")


def scatter_rows(a, index, shape) -> Tensor:
    """The inverse of gather_rows: zeros of shape with a's rows placed at the
    unique rows index names over the leading axes. index None fills every
    row in order: a plain reshape, no copy."""
    if index is None:
        return reshape(a, shape)
    a = as_tensor(a)
    out = np.zeros(shape)
    lead = len(index) if isinstance(index, tuple) else 1
    out[index] = a.data.reshape(-1, *shape[lead:])

    def backward(g):
        return (g[index].reshape(a.shape),)

    return _make(out, (a,), backward, "scatter_rows")


# Per-head layouts of a [n, T, H, hd] block: queries/values, and keys.
_HEADS = (0, 2, 1, 3)      # [n, H, T, hd]
_KEYS = (0, 2, 3, 1)       # [n, H, hd, T]


def rows_to_heads(a, rows, slots, shape, keys: bool = False) -> Tensor:
    """Packed [N, H*hd] rows placed per head: ``a[rows]`` written at the
    (sequence, position) ``slots`` of a zero [n, T, H, hd] block of the given
    shape, returned as [n, H, T, hd], or [n, H, hd, T] when keys, so that
    q @ k needs no further transpose. The result is a strided view of that
    block, which matmul reads as it is.

    rows None takes every row of a in order; slots None fills every slot in
    order, and with rows None too the result is a view of a itself: no copy.
    Each slot is named at most once, so backward is a plain gather.
    """
    a = as_tensor(a)
    axes = _KEYS if keys else _HEADS
    if slots is None:
        block = (a.data if rows is None else a.data[rows]).reshape(shape)
    else:
        block = np.zeros(shape)
        block[slots] = (a.data if rows is None else a.data[rows]).reshape(-1, *shape[2:])
    inverse = np.argsort(axes)

    def backward(g):
        picked = g.transpose(inverse)
        picked = (picked.reshape(-1, a.shape[1]) if slots is None
                  else picked[slots].reshape(-1, a.shape[1]))
        if rows is None:
            return (picked,)
        ga = np.zeros_like(a.data)
        ga[rows] = picked
        return (ga,)

    return _make(block.transpose(axes), (a,), backward, "rows_to_heads")


def heads_to_rows(parts: Sequence, placements, num_rows: int) -> Tensor:
    """The inverse of rows_to_heads over several blocks at once: one
    [num_rows, H*hd] array holding, for each [n, H, T, hd] part and its
    (rows, slots) placement, the part's slots at its rows. The placements
    must name every row exactly once between them."""
    parts = [as_tensor(p) for p in parts]
    width = parts[0].shape[1] * parts[0].shape[3]
    if len(parts) == 1 and placements[0][0] is None:
        picked = parts[0].data.transpose(_HEADS)
        slots = placements[0][1]
        out = (picked.reshape(num_rows, width) if slots is None
               else picked[slots].reshape(num_rows, width))
    else:
        out = np.empty((num_rows, width))
        for p, (rows, slots) in zip(parts, placements):
            out[rows] = p.data.transpose(_HEADS)[slots].reshape(-1, width)

    def backward(g):
        grads = []
        for p, (rows, slots) in zip(parts, placements):
            n, h, t, hd = p.shape
            own = g if rows is None else g[rows]
            if slots is None:
                block = own.reshape(n, t, h, hd)
            else:
                block = np.zeros((n, t, h, hd))
                block[slots] = own.reshape(-1, h, hd)
            grads.append(block.transpose(_HEADS))
        return tuple(grads)

    return _make(out, tuple(parts), backward, "heads_to_rows")


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :].

    Backward sums the gradient rows of each id with one ``np.bincount`` over
    (id, column) bins. It adds in the same order as ``np.add.at``, one row
    at a time, and is 1.4-4x faster on 56-1000 rows of 16-32 columns."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    out = table.data[ids]

    def backward(g):
        if not table.requires_grad:
            return (None,)
        width = math.prod(table.shape[1:])
        bins = ids.reshape(-1, 1) * width + np.arange(width)
        gt = np.bincount(bins.reshape(-1), weights=g.reshape(-1),
                         minlength=table.data.size)
        return (gt.reshape(table.shape),)

    return _make(out, (table,), backward, "embedding")


# -- elementwise unary functions ----------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,), "sqrt")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign so exp never overflows
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)
    return _make(out, (a,), lambda g: (g * (a.data > 0),), "relu")


def softplus(a) -> Tensor:
    """log(1 + exp(x)), overflow-safe, with the exact sigmoid derivative.

    Composing it from relu/abs/log would leave a wrong subgradient at x=0
    even though softplus itself is smooth there.
    """
    a = as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        return (g * _sigmoid(x),)

    return _make(out, (a,), backward, "softplus")


def tabs(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),), "abs")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """GELU via the tanh approximation 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    a = as_tensor(a)
    x = a.data
    # x*x*x, not x**3: numpy's generic pow is ~40x slower on mixed-sign input.
    # out= keeps a 0-d product an array, so the in-place steps accept it.
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    out *= t + 1.0

    def backward(g):
        # g * (0.5*(1 + t) + 0.5*x*(1 - t*t) * c*(1 + 3*0.044715*x*x))
        dinner = np.multiply(x, x, out=np.empty_like(x))
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        tail = np.multiply(t, t, out=np.empty_like(x))
        np.subtract(1.0, tail, out=tail)
        tail *= x * 0.5
        tail *= dinner
        gx = np.add(t, 1.0, out=dinner)
        gx *= 0.5
        gx += tail
        gx *= g
        return (gx,)

    return _make(out, (a,), backward, "gelu")


# -- composite primitives --------------------------------------------------

def softmax(a, scale: float = 1.0, bias: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of ``a * scale + bias``, computed with max
    subtraction. bias is a constant (no gradient) that broadcasts against a,
    such as attention's -1e9 mask offsets. Folding both in here spares two
    full-size temporaries, and the values and gradients are bit-identical to
    the separate multiply, add and softmax."""
    a = as_tensor(a)
    if a.shape[-1] < 1:
        raise ShapeMismatchError("softmax needs a non-empty last axis")
    out = np.multiply(a.data, scale)
    if bias is not None:
        out += bias
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g):
        gx = g * out
        np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
        gx *= out
        gx *= scale
        return (gx,)

    return _make(out, (a,), backward, "softmax")


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis, then affine scale/shift.

    The variance uses the 1/d divisor. gamma and beta are [d] vectors.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm scale/shift must be [{d}], got {list(gamma.shape)} and {list(beta.shape)}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_sigma
    out = gamma.data * xhat + beta.data

    def backward(g):
        gx = ggamma = gbeta = None
        lead = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            ggamma = (g * xhat).sum(axis=lead)
        if beta.requires_grad:
            gbeta = g.sum(axis=lead)
        if x.requires_grad:
            gxhat = g * gamma.data
            gx = inv_sigma * (gxhat
                              - gxhat.mean(axis=-1, keepdims=True)
                              - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        return gx, ggamma, gbeta

    return _make(out, (x, gamma, beta), backward, "layer_norm")


# -- gradient oracle ----------------------------------------------------------

def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function, coordinate by coordinate.

    This is the independent oracle every backward rule is checked against;
    it only ever calls f forward.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad step h must be positive")
    base = x.data
    grad = np.zeros_like(base)
    flat_base = base.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_base.size):
        for sign in (+1.0, -1.0):
            perturbed = flat_base.copy()
            perturbed[i] += sign * h
            value = f(Tensor(perturbed.reshape(base.shape)))
            flat_grad[i] += sign * float(value.data.reshape(())) / (2.0 * h)
    return Tensor(grad)
