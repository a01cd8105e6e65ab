"""AdamW: Adam moment estimates with decoupled weight decay.

The decay term is applied directly to the parameter (lr * wd * theta),
outside the gradient-moment machinery, and is skipped for vectors and
scalars (biases, layer-norm parameters, the adaptive-dropout scalars) —
only matrices and embedding tables shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .autograd import Tensor


def is_int(value) -> bool:
    """A Python or numpy int that is not a bool (JSON's true/false load as
    bools)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_int(value) or isinstance(value, float)


@dataclass
class AdamWConfig:
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    clip_norm: float | None = None

    def __post_init__(self):
        for f in fields(AdamWConfig):
            value = getattr(self, f.name)
            if not (is_number(value) or f.name == "clip_norm" and value is None):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
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
    """First/second moment buffers keyed by parameter name, plus the step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def global_grad_norm(named_params: list[tuple[str, Tensor]]) -> float:
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def adamw_step(named_params: list[tuple[str, Tensor]], state: AdamWState,
               config: AdamWConfig) -> float:
    """One optimizer step over (name, tensor) pairs; returns the pre-clip
    global gradient norm. Parameters with .grad None are skipped entirely
    (their moments do not advance). Gradient arrays are never mutated.
    """
    norm = global_grad_norm(named_params)
    scale = 1.0
    if config.clip_norm is not None and norm > config.clip_norm:
        scale = config.clip_norm / (norm + 1e-12)

    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t

    for name, p in named_params:
        if p.grad is None:
            continue
        g = p.grad * scale if scale != 1.0 else p.grad
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = config.beta1 * m + (1.0 - config.beta1) * g
        v = config.beta2 * v + (1.0 - config.beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        if config.weight_decay > 0.0 and p.data.ndim >= 2:
            update = update + config.weight_decay * p.data
        p.data = p.data - config.lr * update
    return norm
