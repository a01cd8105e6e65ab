"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tensor wraps a C-contiguous numpy float64 array plus, for an op's output
that needs a gradient, a ``Node``: its one graph entry, holding the parents'
entries, a backward rule and a gradient slot, but not the array. Calling
``backward()`` on a scalar loss walks the nodes in reverse topological order
and accumulates gradients additively into every reachable leaf that requires
them. A leaf (no node: parameters, inputs) stands for itself among a node's
parents and never enters the order; its gradient is summed where each
consumer's rule returns it. A node and a leaf both read ``.node``, ``.grad``
and ``.requires_grad``, so a walker treats them alike.

The graph holds only what backward reads. Each rule's closure captures only
the arrays, shapes and flags it reads, never an operand Tensor: ``add`` keeps
shapes, ``mul`` keeps the other operand only if this side needs a gradient,
``layer_norm`` keeps ``xhat``, ``inv_sigma`` and ``gamma``, ``gelu`` keeps its
slope. An intermediate whose array no rule reads is therefore freed as soon
as the caller drops the Tensor, though the graph built on it lives until the
walk.

The walk releases the graph as it goes, as PyTorch does by default
(``retain_graph=False``). Leaf tensors keep their ``.grad``. Before a node's
rule runs, the walk takes and clears the node's gradient, parents and rule,
so each rule's saved arrays are freed once it has run. The node stays on its
Tensor with ``.released`` true and no parents, so a graph can be walked only
once: a second ``backward()`` on the same loss, or on a new loss built on a
walked intermediate, raises ``GraphReleasedError`` before any rule runs, so
no gradient is half-written.

Everything is float64: the test suite rests on central finite differences,
which are not trustworthy at single precision. Importing the module raises
glibc's dynamic malloc thresholds once, so the heap a step frees stays mapped
for the next step (see the statement after the imports).

Gradient arrays are never mutated in place, because a backward rule may hand
its parent a view of the incoming gradient. Kernels that work in place follow
one rule: they write only into arrays they allocated themselves, never into
an operand's ``.data`` or an incoming gradient ``g``.

Broadcasting in elementwise binary ops follows numpy semantics; the backward
pass sum-reduces gradients over broadcast axes. The rest of the op set is the
minimum a small transformer needs: matmul (2-D, batched, and N-D by 2-D),
the affine map ``linear`` (x @ w + b as one node),
softmax over the last axis, layer norm, GELU, elementwise functions,
reductions, reshapes, concatenation, basic slicing, embedding lookup, and
the gather/scatter of unique rows that moves packed token rows in and out of
a padded [B, T, ...] layout. Ops with a hand-written backward that belong to
one model, such as the encoder's attention core and dropout, live with the
model and build their nodes with ``_make``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# Keep freed heap mapped between training steps. glibc serves a request above
# its mmap threshold (128 KiB at start) with a fresh mmap; when such a chunk
# is freed, it raises the threshold to the chunk's size and the heap's trim
# threshold to twice that (mallopt(3), M_MMAP_THRESHOLD), for chunks up to
# 32 MiB. A step's arrays then come from the heap, which glibc no longer
# trims at each step's end, so the next step reuses its pages without
# faulting: an unsup-SimCSE step (default encoder, batch 32) took about 6,000
# minor faults, now none. The block is 31 MiB, since a 32 MiB request's
# chunk (request + header, page-rounded) exceeds the cap and would be
# ignored; the thresholds become 31 and 62 MiB. It is never written, so it
# costs no resident memory. Other allocators, or glibc with a MALLOC_*
# variable set (which turns the dynamic thresholds off), just map and unmap
# it.
np.empty(31 << 20, np.uint8)


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class GraphReleasedError(RuntimeError):
    """backward() reached a tensor whose graph an earlier walk released."""


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
    """An op output's graph entry: its parents' entries, its backward rule
    and its gradient slot, but not its array. A walk clears all three in
    place (see the module docstring)."""

    __slots__ = ("parents", "backward_fn", "op", "grad")
    requires_grad = True        # only an output that needs a gradient has one

    def __init__(self, parents, backward_fn, op=""):
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op
        self.grad: np.ndarray | None = None

    @property
    def node(self) -> "Node":
        """The entry itself, so walkers read a node and a leaf alike."""
        return self

    @property
    def released(self) -> bool:
        return self.backward_fn is None


class Tensor:
    """Dense float64 array with optional gradient and graph node."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.node: Node | None = None       # the op that made it; None for a leaf

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
        return _wrap(self.data)

    def copy(self, requires_grad: bool | None = None) -> "Tensor":
        return Tensor(self.data.copy(),
                      self.requires_grad if requires_grad is None else requires_grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"

    # -- graph traversal ---------------------------------------------------

    def backward(self) -> None:
        """Populate .grad on every reachable leaf that requires gradients,
        releasing the graph as the walk passes it (see the module docstring).

        The loss must be a scalar. Gradients accumulate additively when a
        tensor feeds several consumers.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {list(self.shape)}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no gradient path")

        root = self.node
        if root is None:                    # a leaf loss: its gradient is one
            one = np.ones_like(self.data)
            self.grad = one if self.grad is None else self.grad + one
            return
        # depth-first over nodes only: a leaf has no parents, so leaving it
        # off the stack moves no node in the order
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            n, expanded = stack.pop()
            if expanded:
                order.append(n)
                continue
            if id(n) in seen:
                continue
            if n.backward_fn is None:
                raise GraphReleasedError(
                    "backward() through a graph that an earlier backward() released; "
                    "rebuild the loss with a fresh forward pass")
            seen.add(id(n))
            stack.append((n, True))
            for p in n.parents:
                if type(p) is Node and id(p) not in seen:
                    stack.append((p, False))

        root.grad = np.ones_like(self.data)
        while order:
            n = order.pop()
            g, parents, fn = n.grad, n.parents, n.backward_fn
            n.grad, n.parents, n.backward_fn = None, (), None
            if g is None:
                continue
            for p, gp in zip(parents, fn(g)):
                # never mutate gradient arrays in place: views may be shared
                if gp is not None and p.requires_grad:
                    p.grad = gp if p.grad is None else p.grad + gp

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
    t.requires_grad = False
    t.grad = None
    t.node = None
    return t


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable, op: str = "") -> Tensor:
    """The output tensor of an op. When grad mode is on and an operand needs
    a gradient, it gets a node that holds the operands' graph entries and
    backward_fn, which must capture no operand Tensor (see the
    module docstring) and returns one gradient or None per operand."""
    out = _wrap(np.asarray(data, dtype=np.float64))
    if _grad_enabled:
        for p in parents:           # a plain loop: any() over a generator costs
            if p.requires_grad:     # more than many small ops themselves
                out.requires_grad = True
                entries = tuple([q if q.node is None else q.node for q in parents])
                out.node = Node(entries, backward_fn, op)
                break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a gradient back to the pre-broadcast operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise binary ops -------------------------------------------------

# A rule saves what it reads for a side only when that side needs a gradient;
# None marks a side that gets none.

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def backward(g):
        ga = _unbroadcast(g, sa) if sa is not None else None
        gb = _unbroadcast(g, sb) if sb is not None else None
        return ga, gb

    return _make(out, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def backward(g):
        ga = _unbroadcast(g, sa) if sa is not None else None
        gb = _unbroadcast(-g, sb) if sb is not None else None
        return ga, gb

    return _make(out, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    sa, sb = a.shape, b.shape
    bd = b.data if a.requires_grad else None    # a's gradient reads b
    ad = a.data if b.requires_grad else None

    def backward(g):
        ga = _unbroadcast(g * bd, sa) if bd is not None else None
        gb = _unbroadcast(g * ad, sb) if ad is not None else None
        return ga, gb

    return _make(out, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    sa, sb, bd = a.shape, b.shape, b.data
    ra = a.requires_grad
    ad = a.data if b.requires_grad else None

    def backward(g):
        ga = _unbroadcast(g / bd, sa) if ra else None
        gb = _unbroadcast(-g * ad / (bd * bd), sb) if ad is not None else None
        return ga, gb

    return _make(out, (a, b), backward, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def powc(a, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = as_tensor(a)
    c = float(exponent)
    x = a.data
    out = x ** c

    def backward(g):
        return (g * c * x ** (c - 1.0),)

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
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def backward(g):
        ga = gb = None
        if bd is not None:
            ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        if ad is not None:
            if len(sb) == 2:
                k, n = sb
                gb = np.matmul(ad.reshape(-1, k).T, g.reshape(-1, n))
            else:
                gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return ga, gb

    return _make(out, (a, b), backward, "matmul")


def linear(x, w, b) -> Tensor:
    """The affine map x @ w + b as one node: [..., k] @ [k, n] + [n].

    Values and gradients are bit-identical to ``matmul(x, w) + b``, but the
    product is summed into its own fresh array instead of being kept as a
    separate graph tensor that the bias add's backward never reads.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(f"linear needs [..., k] @ [k, n], got "
                                 f"{list(x.shape)} @ {list(w.shape)}")
    k, n = w.shape
    out = np.matmul(x.data, w.data)
    out += b.data
    wd = w.data if x.requires_grad else None
    xd = x.data if w.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def backward(g):
        gx = np.matmul(g, wd.T) if wd is not None else None
        gw = (np.matmul(xd.reshape(-1, k).T, g.reshape(-1, n))
              if xd is not None else None)
        gb = _unbroadcast(g, sb) if sb is not None else None
        return gx, gw, gb

    return _make(out, (x, w, b), backward, "linear")


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
    shape = a.shape

    def backward(g):
        return (_restore_axes(g, shape, axis, keepdims).copy(),)

    return _make(out, (a,), backward, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / max(out.size, 1)
    shape = a.shape

    def backward(g):
        return (_restore_axes(g, shape, axis, keepdims) / count,)

    return _make(out, (a,), backward, "mean")


# -- shape ops ----------------------------------------------------------------

def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)
    original = a.shape

    def backward(g):
        return (g.reshape(original),)

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
    shape = a.shape

    def backward(g):
        ga = np.zeros(shape)
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
    source, rows = a.shape, picked.shape

    def backward(g):
        ga = np.zeros(source)
        ga[index] = g.reshape(rows)
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
    rows = a.shape

    def backward(g):
        return (g[index].reshape(rows),)

    return _make(out, (a,), backward, "scatter_rows")


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :].

    Backward sums the gradient rows of each id with one ``np.bincount`` over
    (id, column) bins. It adds in the same order as ``np.add.at``, one row
    at a time, and is 1.4-4x faster on 56-1000 rows of 16-32 columns."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    out = table.data[ids]
    shape = table.shape

    def backward(g):
        width = math.prod(shape[1:])
        bins = ids.reshape(-1, 1) * width + np.arange(width)
        gt = np.bincount(bins.reshape(-1), weights=g.reshape(-1),
                         minlength=math.prod(shape))
        return (gt.reshape(shape),)

    return _make(out, (table,), backward, "embedding")


# -- elementwise unary functions ----------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return _make(np.log(x), (a,), lambda g: (g / x,), "log")


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
    positive = a.data > 0
    return _make(out, (a,), lambda g: (g * positive,), "relu")


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
    x = a.data
    return _make(np.abs(x), (a,), lambda g: (g * np.sign(x),), "abs")


_GELU_C = math.sqrt(2.0 / math.pi)

# Rows per GELU block: the scratch arrays are [128, width], not the input's
# size, so a stacked batch of views does not double the forward's peak.
_GELU_BLOCK = 128


def _gelu_rows(x: np.ndarray, out: np.ndarray, slope: np.ndarray | None) -> None:
    """GELU of 2-D rows x into out, and its slope into slope when given;
    out and slope are C-contiguous arrays of x's shape."""
    # x*x*x, not x**3: numpy's generic pow is ~40x slower on mixed-sign input.
    xx = np.multiply(x, x)
    t = np.multiply(xx, x) if slope is not None else np.multiply(xx, x, out=xx)
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.multiply(x, 0.5, out=out)
    if slope is None:
        t += 1.0
        out *= t
        return

    # slope = 0.5*(1 + t) + 0.5*x*(1 - t*t) * c*(1 + 3*0.044715*x*x); out
    # holds 0.5*x until it takes the factor 1 + t.
    dinner = xx
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= _GELU_C
    np.add(t, 1.0, out=slope)
    tail = np.multiply(t, t, out=t)
    np.subtract(1.0, tail, out=tail)
    tail *= out
    tail *= dinner
    out *= slope
    slope *= 0.5
    slope += tail


def gelu(a) -> Tensor:
    """GELU via the tanh approximation 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    Rows of the last axis run in blocks of ``_GELU_BLOCK``; every element's
    value and slope take the same operations in the same order as one
    whole-array pass, so blocking changes no bit. The node saves only the
    slope, so neither x nor the tanh outlives the forward pass.
    """
    a = as_tensor(a)
    x = a.data
    slope_needed = _grad_enabled and a.requires_grad
    # C-contiguous whatever x's layout, so the 2-D views below write through
    out = np.empty(x.shape)
    slope = np.empty(x.shape) if slope_needed else None
    width = x.shape[-1] if x.ndim else 1
    rows = x.size // width if width else 0
    x2, out2 = x.reshape(rows, width), out.reshape(rows, width)
    slope2 = slope.reshape(rows, width) if slope_needed else None
    for start in range(0, rows, _GELU_BLOCK):
        block = slice(start, start + _GELU_BLOCK)
        _gelu_rows(x2[block], out2[block],
                   None if slope2 is None else slope2[block])
    if not slope_needed:
        return _wrap(out)

    def backward(g):
        return (np.multiply(g, slope, out=np.empty_like(slope)),)

    return _make(out, (a,), backward, "gelu")


# -- composite primitives --------------------------------------------------

def softmax(a, scale: float = 1.0, bias: np.ndarray | None = None,
            out: np.ndarray | None = None, stats: list | None = None) -> Tensor:
    """Softmax over the last axis of ``a * scale + bias``, computed with max
    subtraction. bias is a constant (no gradient) that broadcasts against a,
    such as attention's -1e9 mask offsets. Folding both in here spares two
    full-size temporaries, and the values and gradients are bit-identical to
    the separate multiply, add and softmax. out and stats are
    ``softmax_probs``'s: out may be a's own array when the caller needs it no
    more."""
    a = as_tensor(a)
    if a.shape[-1] < 1:
        raise ShapeMismatchError("softmax needs a non-empty last axis")
    out = softmax_probs(a.data, scale, bias, out, stats)
    return _make(out, (a,), lambda g: (softmax_grad(g, out, scale),), "softmax")


def softmax_probs(x: np.ndarray, scale: float = 1.0, bias: np.ndarray | None = None,
                  out: np.ndarray | None = None, stats=None) -> np.ndarray:
    """``softmax``'s output array for the array x, written into out when
    given (out may be x). The reductions are ndarray.max's and .sum's own
    ufunc calls, without their Python wrappers.

    stats, an empty list, is filled with the row max and row sum ([..., 1])
    this call computes. Given such a pair back, a call on the same x, scale
    and bias skips both reductions and returns the first call's output bit
    for bit, since every other step takes the same operands: so a backward
    can rebuild a softmax output instead of keeping it.
    """
    out = np.multiply(x, scale, out=out)
    if bias is not None:
        out += bias
    rebuild = bool(stats)
    top = stats[0] if rebuild else np.maximum.reduce(out, axis=-1, keepdims=True)
    out -= top
    np.exp(out, out=out)
    total = stats[1] if rebuild else np.add.reduce(out, axis=-1, keepdims=True)
    out /= total
    if stats is not None and not rebuild:
        stats += [top, total]
    return out


def softmax_grad(g: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """softmax's gradient for ``a`` from its output and output gradient g."""
    gx = g * out
    np.subtract(g, np.add.reduce(gx, axis=-1, keepdims=True), out=gx)
    gx *= out
    gx *= scale
    return gx


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
    # np.add.reduce(...) / d is ndarray.mean's own arithmetic, without its
    # Python wrapper; x is centred once
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_sigma
    out = gamma.data * xhat + beta.data
    scale = gamma.data if x.requires_grad else None
    rg, rb = gamma.requires_grad, beta.requires_grad

    def backward(g):
        gx = ggamma = gbeta = None
        lead = tuple(range(g.ndim - 1))
        if rg:
            ggamma = (g * xhat).sum(axis=lead)
        if rb:
            gbeta = g.sum(axis=lead)
        if scale is not None:
            gxhat = g * scale
            gx = inv_sigma * (gxhat
                              - np.add.reduce(gxhat, axis=-1, keepdims=True) / d
                              - xhat * (np.add.reduce(gxhat * xhat, axis=-1,
                                                      keepdims=True) / d))
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
