"""Task heads and training losses.

Heads map pooled sentence embeddings to predictions: a 5-way linear
classifier for sentiment, a linear classifier over pair features for
paraphrase detection, and five similarity heads for the 0-5 STS score.
They read their weights from the model's parameter table by name
(``heads.sst.weight`` ...; see ``encoder.param_spec``).
Losses: numerically stable BCE, MSE, softmax cross entropy, and the two
contrastive objectives (in-batch negatives, optionally with hard negatives).
Each checks its targets' shape (``ShapeMismatchError``) and range
(``ValueError``). The contrastive objectives are one graph node, InfoNCE
over cosine similarities, with a hand-written backward: a fixed number of
whole-array numpy calls whatever the number of candidate batches.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor, concat, linear, matmul

SIMILARITY_HEADS = ("sum_linear", "cos_scale", "cos_sigmoid",
                    "cos_sigmoid_scaled", "cross_attention")

PARA_FEATURE_MODES = ("rich", "concat")


class ZeroNormError(ValueError):
    """Cosine of a zero-norm embedding is undefined."""


# -- heads ---------------------------------------------------------------------

def sst_logits(pooled: Tensor, params) -> Tensor:
    """[B, d] -> [B, 5] raw logits; the loss owns normalization."""
    return linear(pooled, params["heads.sst.weight"], params["heads.sst.bias"])


def paraphrase_logit(pooled_a: Tensor, pooled_b: Tensor, params,
                     features: str = "rich") -> Tensor:
    """[B, d] x 2 -> [B] raw logit from pair features.

    "rich" builds [a; b; |a-b|; a*b], which keeps the head linear while being
    symmetric in its interaction blocks; "concat" is plain [a; b].
    """
    if features == "rich":
        feats = concat([pooled_a, pooled_b,
                        (pooled_a - pooled_b).abs(),
                        pooled_a * pooled_b], axis=-1)
    elif features == "concat":
        feats = concat([pooled_a, pooled_b], axis=-1)
    else:
        raise ValueError(f"unknown para feature mode {features!r}")
    out = linear(feats, params["heads.para.weight"], params["heads.para.bias"])
    return out.reshape(out.shape[0])


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity over the last axis; differentiable, in [-1, 1]."""
    a, b = ag.as_tensor(a), ag.as_tensor(b)
    na2 = (a * a).sum(axis=-1)
    nb2 = (b * b).sum(axis=-1)
    if np.any(na2.data <= 0.0) or np.any(nb2.data <= 0.0):
        raise ZeroNormError("cosine similarity of a zero-norm vector is undefined")
    dot = (a * b).sum(axis=-1)
    return dot / (ag.sqrt(na2) * ag.sqrt(nb2))


def sts_score(pooled_a: Tensor, pooled_b: Tensor, kind: str, params) -> Tensor:
    """[B, d] x 2 -> [B] similarity scores in 0-5 score space (head-dependent
    range; the plain linear head is unbounded)."""
    if kind == "sum_linear":
        feats = concat([pooled_a, pooled_b], axis=-1)
        out = linear(feats, params["heads.sts.weight"], params["heads.sts.bias"])
        return out.reshape(out.shape[0])
    if kind == "cos_scale":
        return (cosine(pooled_a, pooled_b) + 1.0) * 2.5
    if kind == "cos_sigmoid":
        return ag.sigmoid(cosine(pooled_a, pooled_b)) * 5.0
    if kind == "cos_sigmoid_scaled":
        return ag.sigmoid(cosine(pooled_a, pooled_b) * 5.0) * 5.0
    if kind == "cross_attention":
        # bilinear attention score a^T M b per row, squashed into [0, 5]
        m = ag.transpose(params["heads.cross_attn"])
        scores = (pooled_a * matmul(pooled_b, m)).sum(axis=-1)
        return ag.sigmoid(scores) * 5.0
    raise ValueError(f"unknown similarity head {kind!r}, expected one of {SIMILARITY_HEADS}")


# -- supervised losses ----------------------------------------------------------

def bce_loss(logits: Tensor, targets) -> Tensor:
    """Mean binary cross entropy from raw logits, in the stable form
    softplus(z) - z*t = max(z,0) - z*t + log(1 + exp(-|z|)).
    """
    logits = ag.as_tensor(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ag.ShapeMismatchError(
            f"bce targets shape {list(t.shape)} != logits shape {list(logits.shape)}")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("bce targets must lie in [0, 1]")
    return (ag.softplus(logits) - logits * Tensor(t)).mean()


def mse_loss(pred: Tensor, target) -> Tensor:
    pred = ag.as_tensor(pred)
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.shape:
        raise ag.ShapeMismatchError(
            f"mse target shape {list(t.shape)} != prediction shape {list(pred.shape)}")
    diff = pred - Tensor(t)
    return (diff * diff).mean()


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross entropy of [N, K] logits against integer class
    labels of shape [N] in 0..K-1: log-sum-exp of each row minus its
    label's logit."""
    logits = ag.as_tensor(logits)
    raw = np.asarray(labels)
    if logits.ndim != 2 or raw.shape != logits.shape[:1]:
        raise ag.ShapeMismatchError(
            f"ce labels shape {list(raw.shape)} does not match logits shape "
            f"{list(logits.shape)} (labels [N] for logits [N, K])")
    if raw.size and raw.dtype.kind not in "iu":
        raise ValueError(f"ce labels must be integers, got dtype {raw.dtype}")
    if np.any(raw < 0) or np.any(raw >= logits.shape[1]):
        raise ValueError(f"ce labels must lie in 0..{logits.shape[1] - 1}")
    rows = np.arange(logits.shape[0])
    return (_logsumexp_rows(logits) - logits[rows, raw.astype(np.int64)]).mean()


def _logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log-sum-exp of a 2-D tensor, max-shifted for stability."""
    m = x.data.max(axis=-1, keepdims=True)
    return ag.log(ag.exp(x - Tensor(m)).sum(axis=-1)) + Tensor(m[:, 0])


# -- contrastive losses -----------------------------------------------------------

def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x's rows scaled to unit length, and the [N, 1] row norms."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if np.any(norm <= 0.0):
        raise ZeroNormError("contrastive loss over a zero-norm embedding")
    return x / norm, norm


def _unit_rows_grad(g: np.ndarray, unit: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Gradient for x from the gradient g of x / ||x|| (row-wise)."""
    return (g - unit * (g * unit).sum(axis=-1, keepdims=True)) / norm


def _info_nce(h: Tensor, candidates, tau: float) -> Tensor:
    """Mean InfoNCE over cosine similarities / tau: row i's positive is row
    i of the first candidate batch, every other candidate row a negative,
    so it is the cross entropy of the similarity rows against labels 0..N-1.

    One graph node (op "info_nce") whatever the number of candidate
    batches, each of which must have h's [N, d] shape. The backward is
    written by hand: dS = (softmax(S) - onehot) * g / N for the logits S,
    1/tau of that for the cosines, then through both row normalizations.
    """
    h = ag.as_tensor(h)
    candidates = [ag.as_tensor(c) for c in candidates]
    hn, h_norm = _unit_rows(h.data)
    for c in candidates:
        if h.ndim != 2 or c.shape != h.shape:
            raise ag.ShapeMismatchError(
                f"contrastive candidates must match the anchors' [N, d] shape "
                f"{list(h.shape)}, got {list(c.shape)}")
    n, k = h.shape[0], len(candidates)
    cn, c_norm = _unit_rows(np.concatenate([c.data for c in candidates]))
    sim = matmul(ag._wrap(hn), ag._wrap(cn.T)).data * (1.0 / tau)
    peak = sim.max(axis=-1, keepdims=True)
    e = np.exp(sim - peak)
    total = e.sum(axis=-1, keepdims=True)
    rows = np.arange(n)
    loss = (np.log(total[:, 0]) + peak[:, 0] - sim[rows, rows]).mean()

    def backward(g):
        d_cos = e / total
        d_cos[rows, rows] -= 1.0
        d_cos *= g * (1.0 / (n * tau))
        gh = _unit_rows_grad(d_cos @ cn, hn, h_norm)
        gc = _unit_rows_grad(d_cos.T @ hn, cn, c_norm)
        return (gh, *(gc[j * n:(j + 1) * n] for j in range(k)))

    return ag._make(loss, (h, *candidates), backward, "info_nce")


def unsup_simcse_loss(h: Tensor, h_plus: Tensor, tau: float = 0.05) -> Tensor:
    """In-batch contrastive loss over cosine similarities.

    Row i's positive is h_plus[i]; every other h_plus row in the batch is a
    negative. Returns the mean over rows of
    -log( exp(cos(h_i, h_i+)/tau) / sum_j exp(cos(h_i, h_j+)/tau) ).
    """
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    if h.shape[0] < 2:
        raise ValueError("in-batch contrastive loss needs N >= 2 (no negatives otherwise)")
    return _info_nce(h, (h_plus,), tau)


def sup_simcse_loss(h: Tensor, h_plus: Tensor, h_minus: Tensor, tau: float = 0.05) -> Tensor:
    """Contrastive loss with hard negatives: the denominator pools every
    in-batch positive and every in-batch hard negative.
    """
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    return _info_nce(h, (h_plus, h_minus), tau)
