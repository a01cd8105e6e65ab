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
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(obj, prefix: str = "") -> None:
    """Check each field of the dataclass ``obj`` against its declared type.

    int takes a Python or numpy int but not a bool, float any such int or a
    float, bool only a bool and str only a str; ``X | None`` also takes None.
    Fields of any other type (a nested config) are skipped. The types are
    read as the strings ``from __future__ import annotations`` leaves.
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
    """Flat data, m and v vectors over the tensors that have a gradient.

    Matrices (ndim >= 2) come first, so weight decay reads one leading slice.
    Each tensor's ``.data`` and its ``m``/``v`` entries become views of the
    flat vectors, so one whole-array update moves them all. A tensor outside
    the set keeps its arrays, and its moments stay in ``m``/``v``.
    """

    __slots__ = ("order", "views", "data", "m", "v", "decayed")

    def __init__(self, active: list[tuple[str, Tensor]], state: AdamWState):
        # positions in active, matrices first (a stable sort)
        self.order = sorted(range(len(active)), key=lambda i: active[i][1].ndim < 2)
        tensors = [active[i] for i in self.order]
        self.decayed = sum(p.size for _, p in tensors if p.ndim >= 2)
        self.data = np.concatenate([p.data.reshape(-1) for _, p in tensors],
                                   dtype=np.float64)
        self.m, self.v = (np.concatenate([moments[name].reshape(-1) if name in moments
                                          else np.zeros(p.size) for name, p in tensors])
                          for moments in (state.m, state.v))
        offset = 0
        for name, p in tensors:
            part = slice(offset, offset + p.size)
            offset = part.stop
            p.data = self.data[part].reshape(p.shape)
            state.m[name] = self.m[part].reshape(p.shape)
            state.v[name] = self.v[part].reshape(p.shape)
        self.views = [(name, p.data) for name, p in active]

    def serves(self, active: list[tuple[str, Tensor]]) -> bool:
        """Whether active names the same tensors in the same order, each
        ``.data`` still the view handed out here (not rebound by a caller)."""
        return len(active) == len(self.views) and all(
            name == kept and p.data is view
            for (name, p), (kept, view) in zip(active, self.views))


def _norm(flat: np.ndarray) -> float:
    # an elementwise square and numpy's pairwise sum, not a BLAS dot, so the
    # result does not depend on the BLAS thread count
    return float(np.sqrt((flat * flat).sum()))


def global_grad_norm(named_params: list[tuple[str, Tensor]]) -> float:
    grads = [p.grad.reshape(-1) for _, p in named_params if p.grad is not None]
    return _norm(np.concatenate(grads)) if grads else 0.0


def adamw_step(named_params: list[tuple[str, Tensor]], state: AdamWState,
               config: AdamWConfig) -> float:
    """One optimizer step over (name, tensor) pairs; returns the pre-clip
    global gradient norm. Parameters with .grad None are skipped entirely
    (their moments do not advance). Gradient arrays are never mutated.

    The step is a fixed number of whole-array operations on the flat
    vectors of ``state.flat``, whatever the number of tensors. They are
    rebuilt only when the set of tensors with a gradient changes or a caller
    has rebound a ``.data``. Each element takes the same operations in the
    same order as a per-tensor update, so only the norm's summation order
    (and with it a clipped step's scale) differs from one.
    """
    active = [(name, p) for name, p in named_params if p.grad is not None]
    state.step += 1
    if not active:
        return 0.0
    flat = state.flat
    if flat is None or not flat.serves(active):
        flat = state.flat = _FlatBuffers(active, state)
    g = np.concatenate([active[i][1].grad.reshape(-1) for i in flat.order])
    norm = _norm(g)
    if config.clip_norm is not None and norm > config.clip_norm:
        g *= config.clip_norm / (norm + 1e-12)

    t = state.step
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    flat.m *= config.beta1
    flat.m += (1.0 - config.beta1) * g
    g *= g
    flat.v *= config.beta2
    flat.v += (1.0 - config.beta2) * g
    update = flat.m / bc1
    update /= np.sqrt(flat.v / bc2) + config.eps
    if config.weight_decay > 0.0 and flat.decayed:
        update[:flat.decayed] += config.weight_decay * flat.data[:flat.decayed]
    update *= config.lr
    flat.data -= update
    return norm
