"""AdamW: Adam moment estimates with decoupled weight decay.

The decay term is applied directly to the parameter (lr * wd * theta),
outside the gradient-moment machinery, and is skipped for vectors and
scalars (biases, layer-norm parameters, the adaptive-dropout scalars) —
only matrices and embedding tables shrink.

A step is a fixed number of whole-array numpy operations, whatever the
number of tensors: the gradients that exist are concatenated into one
vector (gradient arrays are never mutated), and the moments and the
parameters live in flat vectors that the step updates in place. Each
parameter's ``.data`` and its ``m``/``v`` entries are views of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .autograd import Tensor


def _is_int(value) -> bool:
    """A Python or numpy int that is not a bool (JSON's true/false load as
    bools)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# declared type -> (what the error says a value must be, the test it passes)
_TYPE_RULES = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)
              and math.isfinite(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(obj, prefix: str = "") -> None:
    """Check each field of the dataclass ``obj`` against its declared type.

    int takes a Python or numpy int but not a bool, float any such int or a
    finite float, bool only a bool and str only a str; ``X | None`` also
    takes None. Fields of any other type (a nested config) are skipped. The
    types are read as the strings ``from __future__ import annotations``
    leaves.
    """
    for f in fields(obj):
        kind, _, rest = f.type.partition(" | ")
        if kind not in _TYPE_RULES or rest not in ("", "None"):
            continue
        what, test = _TYPE_RULES[kind]
        value = getattr(obj, f.name)
        if not (test(value) or rest and value is None):
            raise ValueError(f"{prefix}{f.name} must be {what}"
                             f"{' or null' if rest else ''}, got {value!r}")


@dataclass
class AdamWConfig:
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    clip_norm: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive when set")


@dataclass
class AdamWState:
    """First/second moment buffers keyed by parameter name, plus the step
    count. ``m[name]`` and ``v[name]`` are views of the flat moment vectors
    that ``adamw_step`` updates in place (see ``_FlatBuffers``)."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    flat: "_FlatBuffers | None" = field(default=None, repr=False)


class _FlatBuffers:
    """Flat data, m and v vectors over every tensor that has had a gradient.

    Matrices (ndim >= 2) come first, so weight decay reads one leading slice
    of any set of tensors taken in layout order. Each tensor's ``.data`` and
    its ``m``/``v`` entries become views of the flat vectors, so one
    whole-array update moves them all. A step whose tensors with a gradient
    are only some of the layout's (a multitask step, with one head active)
    gathers and updates their segments alone, as contiguous runs of the
    flat vectors cached per set; the others keep their data and moments. A
    tensor outside the layout keeps its arrays, and its moments stay in
    ``m``/``v``.
    """

    __slots__ = ("slots", "spans", "data", "m", "v", "subsets")

    def __init__(self, members: list[tuple[str, Tensor]], state: AdamWState):
        tensors = sorted(members, key=lambda item: item[1].ndim < 2)  # stable
        self.data = np.concatenate([p.data.reshape(-1) for _, p in tensors],
                                   dtype=np.float64)
        self.m, self.v = (np.concatenate([moments[name].reshape(-1) if name in moments
                                          else np.zeros(p.size) for name, p in tensors])
                          for moments in (state.m, state.v))
        self.slots: dict[str, tuple[int, np.ndarray]] = {}   # name -> (position, view)
        self.spans: list[tuple[int, int, bool]] = []        # (start, stop, decayed)
        offset = 0
        for position, (name, p) in enumerate(tensors):
            part = slice(offset, offset + p.size)
            offset = part.stop
            p.data = self.data[part].reshape(p.shape)
            state.m[name] = self.m[part].reshape(p.shape)
            state.v[name] = self.v[part].reshape(p.shape)
            self.slots[name] = (position, p.data)
            self.spans.append((part.start, part.stop, p.ndim >= 2))
        # positions of a step's tensors -> (their order, runs, decayed count)
        self.subsets: dict[tuple[int, ...], tuple] = {}

    def positions(self, active: list[tuple[str, Tensor]]) -> tuple[int, ...] | None:
        """The layout positions of active's tensors, or None when one is not
        in the layout or its ``.data`` is not the view handed out here (a
        caller rebound it)."""
        key = []
        for name, p in active:
            slot = self.slots.get(name)
            if slot is None or p.data is not slot[1]:
                return None
            key.append(slot[0])
        return tuple(key)

    def subset(self, key: tuple[int, ...]) -> tuple:
        """For the tensors at layout positions key: the order that sorts them
        by position, their segments merged into contiguous runs of the flat
        vectors (one run for the whole layout), and the number of decayed
        (matrix) elements among them."""
        plan = self.subsets.get(key)
        if plan is None:
            order = sorted(range(len(key)), key=key.__getitem__)
            spans = [self.spans[key[i]] for i in order]
            decayed = sum(stop - start for start, stop, matrix in spans if matrix)
            runs: list[slice] = []
            for start, stop, _ in spans:
                if runs and runs[-1].stop == start:
                    start = runs.pop().start
                runs.append(slice(start, stop))
            plan = self.subsets[key] = (order, runs, decayed)
        return plan


def _norm(flat: np.ndarray) -> float:
    # an elementwise square and numpy's pairwise sum, not a BLAS dot, so the
    # result does not depend on the BLAS thread count
    return float(np.sqrt((flat * flat).sum()))


def adamw_step(named_params: list[tuple[str, Tensor]], state: AdamWState,
               config: AdamWConfig) -> float:
    """One optimizer step over (name, tensor) pairs; returns the pre-clip
    global gradient norm. Parameters with .grad None are skipped entirely
    (their moments do not advance). Gradient arrays are never mutated.

    The step is a fixed number of whole-array operations on the flat
    vectors of ``state.flat``, or on the gathered segments of the tensors
    with a gradient when those are not the whole layout, whatever the
    number of tensors. The layout is rebuilt only when a tensor has its
    first gradient or a caller has rebound a ``.data``. Each element takes
    the same operations in the same order as a per-tensor update, so only
    the norm's summation order (and with it a clipped step's scale) differs
    from one.
    """
    active = [(name, p) for name, p in named_params if p.grad is not None]
    state.step += 1
    if not active:
        return 0.0
    flat = state.flat
    key = None if flat is None else flat.positions(active)
    if key is None:
        known = flat.slots if flat is not None else {}
        flat = state.flat = _FlatBuffers(
            [(name, p) for name, p in named_params
             if p.grad is not None or name in known], state)
        key = flat.positions(active)
    order, runs, decayed = flat.subset(key)
    g = np.concatenate([active[i][1].grad.reshape(-1) for i in order])
    norm = _norm(g)
    if config.clip_norm is not None and norm > config.clip_norm:
        g *= config.clip_norm / (norm + 1e-12)

    # one run is a view, updated in place; several are gathered, then put back
    m, v, data = (vec[runs[0]] if len(runs) == 1 else
                  np.concatenate([vec[run] for run in runs])
                  for vec in (flat.m, flat.v, flat.data))
    t = state.step
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    m *= config.beta1
    m += (1.0 - config.beta1) * g
    g *= g
    v *= config.beta2
    v += (1.0 - config.beta2) * g
    update = m / bc1
    update /= np.sqrt(v / bc2) + config.eps
    if config.weight_decay > 0.0 and decayed:
        update[:decayed] += config.weight_decay * data[:decayed]
    update *= config.lr
    data -= update
    if len(runs) > 1:
        offset = 0
        for run in runs:
            part = slice(offset, offset + run.stop - run.start)
            offset = part.stop
            flat.m[run], flat.v[run], flat.data[run] = m[part], v[part], data[part]
    return norm
