"""Dropout regimes: standard inverted dropout, a curriculum schedule that
ramps the rate up from zero, and activation-conditioned (standout-style)
adaptive dropout.

All three sit behind ``apply_dropout``, which the encoder calls at every
dropout site. A train-mode site takes one key from the caller's Rng stream,
so two consecutive calls on the same input draw different masks; that
difference is the data augmentation the unsupervised contrastive objective
relies on. Row i's mask is a function of the key and ``rows[i]``, the
number the caller gives it (the encoder: its slot), not of the other rows.

Every regime is at most one ``dropout`` graph node per site. Standard and
curriculum dropout save a bool mask and are the identity in eval mode.
Adaptive dropout's node takes (x, activations, alpha, beta) in both modes:
it computes its keep probability, draws the mask or takes its expectation,
and gives all four inputs their gradients in one rule (straight through
the sampled mask in train mode).
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


def standard_dropout(x: Tensor, p: float, mode: str, rng: Rng | None,
                     rows=None) -> Tensor:
    """Inverted dropout: zero each unit with probability p, scale survivors
    by 1/(1-p) so the expected output equals the input. Identity in eval mode.
    rows keys x's rows (default 0..len(x)-1), as in ``Rng.bernoulli``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = 1.0 - p
    kept, scale = rng.bernoulli(keep, x.shape, dtype=bool, rows=rows), 1.0 / keep
    # x * where(kept, scale, 0), bit-identical to x times the float mask,
    # saving the bool mask alone
    return ag._make(x.data * np.where(kept, scale, 0.0), (x,),
                    lambda g: (g * np.where(kept, scale, 0.0),), "dropout")


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
                     rows=None) -> Tensor:
    """Standout-style dropout: keep probability pi_j = sigmoid(alpha*a_j + beta)
    per unit, from that unit's pre-dropout activation a_j (activations has
    x's shape).

    Train mode samples Bernoulli(pi) masks with no 1/pi rescaling. Eval mode
    multiplies by pi, the mask's expectation, because pi is input-dependent
    and there is no single rescaling constant. alpha and beta are learnable;
    in train mode they receive straight-through gradients: pi gets that of
    x*pi, while the value and x's gradient use the sampled mask. rows as in
    ``standard_dropout``.

    Either mode is one ``dropout`` node over (x, activations, alpha, beta).
    Its values and gradients are bit-identical to the composite
    ``x * multiplier`` after ``sigmoid(alpha * activations + beta)``: the
    rule runs the composite's operations in the same order. It saves the
    multiplier (the bool mask in train mode), pi, x's array when pi's inputs
    need a gradient, and the activations' when alpha does.
    """
    if activations.shape != x.shape:
        raise ag.ShapeMismatchError(
            f"adaptive dropout activations must have x's shape {list(x.shape)}, "
            f"got {list(activations.shape)}")
    if alpha is None:
        alpha = Tensor(policy.alpha)
    if beta is None:
        beta = Tensor(policy.beta)
    if mode != "eval" and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    a = activations.data
    pi = ag._sigmoid(alpha.data * a + beta.data)
    multiplier = pi if mode == "eval" else rng.bernoulli(pi, x.shape, dtype=bool, rows=rows)
    rx, rb = x.requires_grad, beta.requires_grad
    # what each side reads: z = alpha*a + beta's gradient reads x, the
    # activations' reads alpha, alpha's reads the activations
    xs = x.data if activations.requires_grad or alpha.requires_grad or rb else None
    alpha_data = alpha.data if activations.requires_grad else None
    acts = a if alpha.requires_grad else None
    alpha_shape, beta_shape = alpha.shape, beta.shape

    def backward(g):
        gx = g * multiplier if rx else None
        if xs is None:
            return gx, None, None, None
        gz = g * xs                     # pi's gradient, then sigmoid's
        gz *= pi
        gz *= 1.0 - pi
        return (gx, None if alpha_data is None else gz * alpha_data,
                None if acts is None else ag._unbroadcast(gz * acts, alpha_shape),
                ag._unbroadcast(gz, beta_shape) if rb else None)

    return ag._make(x.data * multiplier, (x, activations, alpha, beta), backward,
                    "dropout")


def apply_dropout(x: Tensor, policy: DropoutPolicy, mode: str, step: int,
                  rng: Rng | None, alpha: Tensor | None = None,
                  beta: Tensor | None = None, rows=None) -> Tensor:
    """Dispatch one dropout site through the configured regime; rows keys
    x's rows, as in ``standard_dropout``."""
    if policy.kind == "standard":
        return standard_dropout(x, policy.p, mode, rng, rows)
    if policy.kind == "curriculum":
        return standard_dropout(x, curriculum_rate(step, policy), mode, rng, rows)
    return adaptive_dropout(x, x, policy, mode, rng, alpha=alpha, beta=beta, rows=rows)
