"""Dropout regimes: standard inverted dropout, a curriculum schedule that
ramps the rate up from zero, and activation-conditioned (standout-style)
adaptive dropout.

All three sit behind ``apply_dropout``, which the encoder calls at every
dropout site. Train-mode masks come from the caller's Rng stream, so two
consecutive calls on the same input draw different masks; that difference is
the data augmentation the unsupervised contrastive objective relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .optim import check_field_types
from .rng import Rng

KINDS = ("standard", "curriculum", "adaptive")


@dataclass
class DropoutPolicy:
    """Which regime to run and its parameters.

    p is the base drop probability (the target rate for curriculum). gamma
    and total_steps shape the curriculum ramp; alpha and beta are the initial
    values of the adaptive regime's learnable affine scalars.
    """

    kind: str = "standard"
    p: float = 0.3
    gamma: float = 5.0
    alpha: float = 0.0
    beta: float = 0.0
    total_steps: int = 1000

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must be in [0, 1), got {self.p}")
        if self.kind == "curriculum":
            if self.gamma <= 0:
                raise ValueError("curriculum gamma must be positive")
            if self.total_steps < 1:
                raise ValueError("curriculum total_steps must be positive")


def _masked(x: Tensor, kept: np.ndarray, scale: float, pi: Tensor | None = None) -> Tensor:
    """Every regime's train-mode node: ``x * where(kept, scale, 0)``, saving
    the bool mask, bit-identical to x times the float mask. Given the keep
    probability ``pi``, it also gives pi the straight-through gradient of
    ``x * pi``, and saves x's array only when pi needs a gradient."""
    xs = x.data if pi is not None and pi.requires_grad else None
    pi_shape = None if pi is None else pi.shape

    def backward(g):
        gx = g * np.where(kept, scale, 0.0)
        if pi_shape is None:
            return (gx,)
        return gx, None if xs is None else ag._unbroadcast(g * xs, pi_shape)

    parents = (x,) if pi is None else (x, pi)
    return ag._make(x.data * np.where(kept, scale, 0.0), parents, backward, "dropout")


def _site_shape(x: Tensor, part) -> tuple[int, ...]:
    """The whole site's shape: x's, or (n, ...) when part=(index, n) says x
    holds only rows index of an n-row site."""
    return x.shape if part is None else (part[1], *x.shape[1:])


def standard_dropout(x: Tensor, p: float, mode: str, rng: Rng | None,
                     part=None) -> Tensor:
    """Inverted dropout: zero each unit with probability p, scale survivors
    by 1/(1-p) so the expected output equals the input. Identity in eval mode.

    part=(index, n) says x holds only rows index of an n-row site: the mask
    is drawn over all n rows, as for the whole site, and its picked rows are
    kept. The draw returns every row, so perfbench's ``rng.mask_units``
    counts the whole site.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = 1.0 - p
    kept = rng.bernoulli(keep, _site_shape(x, part), dtype=bool)
    return _masked(x, kept if part is None else kept[part[0]], 1.0 / keep)


def curriculum_rate(step: int, policy: DropoutPolicy) -> float:
    """Scheduled rate p(step) = p * (1 - exp(-gamma * step / total_steps)).

    Starts at zero, grows monotonically, saturates at policy.p.
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    return policy.p * (1.0 - float(np.exp(-policy.gamma * step / policy.total_steps)))


def adaptive_dropout(x: Tensor, activations: Tensor, policy: DropoutPolicy,
                     mode: str, rng: Rng | None,
                     alpha: Tensor | None = None, beta: Tensor | None = None,
                     part=None) -> Tensor:
    """Standout-style dropout: keep probability pi_j = sigmoid(alpha*a_j + beta)
    per unit, from that unit's pre-dropout activation a_j.

    Train mode samples Bernoulli(pi) masks with no 1/pi rescaling. Eval mode
    multiplies by pi, the mask's expectation, because pi is input-dependent
    and there is no single rescaling constant. alpha and beta are learnable;
    in train mode they receive straight-through gradients: pi gets that of
    x*pi, while the value and x's gradient use the sampled mask.

    part=(index, n) as in ``standard_dropout``; pi exists for the picked
    rows alone, so the draw compares only those (``Rng.bernoulli(rows=)``).
    """
    if alpha is None:
        alpha = Tensor(policy.alpha)
    if beta is None:
        beta = Tensor(policy.beta)
    pi = ag.sigmoid(alpha * activations + beta)
    if mode == "eval":
        return x * pi
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    kept = rng.bernoulli(pi.data, _site_shape(x, part), dtype=bool,
                         rows=None if part is None else part[0])
    return _masked(x, kept, 1.0, pi)


def apply_dropout(x: Tensor, policy: DropoutPolicy, mode: str, step: int,
                  rng: Rng | None, alpha: Tensor | None = None,
                  beta: Tensor | None = None, part=None) -> Tensor:
    """Dispatch one dropout site through the configured regime.

    part=(index, n): x is rows index of an n-row site, whose mask is drawn
    as for all n rows, so the rng stream advances exactly as at a full site.
    """
    if policy.kind == "standard":
        return standard_dropout(x, policy.p, mode, rng, part)
    if policy.kind == "curriculum":
        return standard_dropout(x, curriculum_rate(step, policy), mode, rng, part)
    return adaptive_dropout(x, x, policy, mode, rng, alpha=alpha, beta=beta, part=part)
