"""Miniature BERT-style encoder.

Token + position embeddings, a stack of post-layer-norm transformer blocks
(multi-head self-attention, then a GELU feed-forward, each sublayer followed
by dropout, residual add and layer norm), and a pooled sentence embedding:
either a tanh pooler over the [CLS] state or a mask-weighted mean.

The two sentences of a pair are two sequences, with no segment embedding
or joint-sequence mode. The trainers stack a batch's sentence columns, and
SimCSE's dropout views, as row blocks of one [k*B, T] batch and encode it
once (``training.encode_views``); rows never attend across sequences, so
each block's pooled rows are its separate pass's to rounding.

Padding-free layout: ``encode`` packs the [B, T] batch once (``pack``) into
N rows, one per real token plus position 0 of every sequence, which CLS
pooling reads even when it is masked. Embeddings, every dropout site, the
projections, residual adds, layer norms, the GELU feed-forward and pooling
run on [N, d] rows. Train-mode dropout masks are therefore drawn over
packed rows only, and the token states of ``encode(..., sequence=True)``
are zero at the slots the packing skips.

CLS-only last block: by default ``encode`` computes only what ``pooled``
reads, and every caller in the package (the training losses, ``predict``,
``dropout_alignment`` and ``embed``) uses that default. Under CLS pooling
the last block then runs K and V over all N rows and everything else over
the B [CLS] rows (``Packing.cls``), drawing each dropout mask as for all N
rows so the rng stream is unchanged. ``sequence=True`` asks for the token
states and runs the full last block; the two passes agree on ``pooled`` to
rounding (1e-12 relative), not bit for bit.

Bucketed attention core: ``pack`` also splits the sequences into length
buckets. A sequence's extent is its last packed position + 1; sorted by
extent (stable), the sequences are cut into contiguous buckets that
minimise sum(n_g * T_g^2) + C * G, the score entries the buckets compute
plus a per-bucket cost C measured in score entries (``_BUCKET_COST``), by a
DP over the distinct extents. ``attention_core`` then runs the masked
T x T scores, softmax and context of every bucket at [n_g, H, T_g, T_g] as
one graph node per layer: it places the Q/K/V rows into each bucket's
per-head blocks, and its backward writes each row's gradient once. A batch
with no padding is one bucket at the full T whose blocks are views of the
rows, not copies.

Parameters live in one name->Tensor table (``ModelParams``) laid out by
``param_spec``: each name, shape and initializer is written there once, and
the names are the checkpoint manifest names (``layers.0.attn.wq``,
``heads.sst.weight``, ``adaptive.alpha``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Tensor, embedding, layer_norm, linear, matmul, softmax
from .dropout import DropoutPolicy, apply_dropout
from .objectives import PARA_FEATURE_MODES, SIMILARITY_HEADS
from .optim import check_field_types
from .rng import Rng

POOLING_MODES = ("cls_tanh", "mean")


class EmptySequenceError(ValueError):
    """Mean pooling over a sequence whose mask has no real token."""


@dataclass
class EncoderConfig:
    vocab_size: int
    hidden_dim: int = 32
    num_layers: int = 4
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 64
    dropout: DropoutPolicy = field(default_factory=DropoutPolicy)
    pooling: str = "cls_tanh"
    para_features: str = "rich"
    sts_head: str = "cos_sigmoid"     # the STS similarity head (objectives.sts_score)

    def __post_init__(self):
        check_field_types(self)
        if min(self.vocab_size, self.hidden_dim, self.num_layers,
               self.num_heads, self.ffn_dim) < 1:
            raise ValueError("encoder dimensions must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2 ([CLS] plus [SEP])")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"unknown pooling mode {self.pooling!r}")
        if self.para_features not in PARA_FEATURE_MODES:
            raise ValueError(f"unknown para feature mode {self.para_features!r}")
        if self.sts_head not in SIMILARITY_HEADS:
            raise ValueError(f"unknown sts head {self.sts_head!r}")


class ModelParams(dict):
    """Every learnable tensor by name, in ``param_spec`` order; ``copy``
    copies the tensors too.

    The adaptive-dropout affine scalars live here too so the optimizer and
    checkpoints treat them like any other parameter.
    """

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.items())

    def zero_grads(self) -> None:
        for t in self.values():
            t.grad = None

    def copy(self) -> "ModelParams":
        return ModelParams((name, t.copy()) for name, t in self.items())

    def scope(self, prefix: str) -> dict[str, Tensor]:
        """The tensors whose names start with prefix, keyed by the rest."""
        n = len(prefix)
        return {name[n:]: t for name, t in self.items() if name.startswith(prefix)}


class EncodeResult(NamedTuple):
    sequence: Tensor | None  # [B, T, d], zero at the slots the packing skips,
                             # from encode(..., sequence=True); None by default
    pooled: Tensor           # [B, d]


def param_spec(config: EncoderConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every parameter: the one table of the layout.

    Its order is the checkpoint manifest order and the draw order of the
    N(0, 0.02) weights (embeddings, layers in order, pooler, heads), so a
    seed pins every weight. init is "normal" for N(0, 0.02), "zeros",
    "ones", or "alpha"/"beta" for the dropout policy's adaptive scalars.
    """
    d, ffn = config.hidden_dim, config.ffn_dim
    para = 4 * d if config.para_features == "rich" else 2 * d
    spec = [("token_embeddings", (config.vocab_size, d), "normal"),
            ("position_embeddings", (config.max_seq_len, d), "normal"),
            ("emb_ln.gamma", (d,), "ones"), ("emb_ln.beta", (d,), "zeros")]
    for i in range(config.num_layers):
        spec += [(f"layers.{i}.{name}", shape, init) for name, shape, init in (
            ("attn.wq", (d, d), "normal"), ("attn.bq", (d,), "zeros"),
            ("attn.wk", (d, d), "normal"), ("attn.bk", (d,), "zeros"),
            ("attn.wv", (d, d), "normal"), ("attn.bv", (d,), "zeros"),
            ("attn.wo", (d, d), "normal"), ("attn.bo", (d,), "zeros"),
            ("ln1.gamma", (d,), "ones"), ("ln1.beta", (d,), "zeros"),
            ("ffn.w1", (d, ffn), "normal"), ("ffn.b1", (ffn,), "zeros"),
            ("ffn.w2", (ffn, d), "normal"), ("ffn.b2", (d,), "zeros"),
            ("ln2.gamma", (d,), "ones"), ("ln2.beta", (d,), "zeros"))]
    return spec + [
        ("pooler.weight", (d, d), "normal"), ("pooler.bias", (d,), "zeros"),
        ("heads.sst.weight", (d, 5), "normal"), ("heads.sst.bias", (5,), "zeros"),
        # [4d, 1] for "rich" pair features, [2d, 1] for "concat"
        ("heads.para.weight", (para, 1), "normal"), ("heads.para.bias", (1,), "zeros"),
        ("heads.sts.weight", (2 * d, 1), "normal"), ("heads.sts.bias", (1,), "zeros"),
        ("heads.cross_attn", (d, d), "normal"),
        ("adaptive.alpha", (), "alpha"), ("adaptive.beta", (), "beta"),
    ]


def init_from_spec(spec, config: EncoderConfig, rng: Rng) -> ModelParams:
    """Fresh tensors for the given spec entries, drawn in spec order."""
    fill = {"zeros": 0.0, "ones": 1.0,
            "alpha": config.dropout.alpha, "beta": config.dropout.beta}
    return ModelParams(
        (name, Tensor(rng.normal(shape, std=0.02) if init == "normal"
                      else np.full(shape, fill[init]), requires_grad=True))
        for name, shape, init in spec)


def init_params(config: EncoderConfig, rng: Rng) -> ModelParams:
    """Weights ~ N(0, 0.02), biases zero, layer-norm gamma=1 beta=0."""
    return init_from_spec(param_spec(config), config, rng)


def _site_dropout(x: Tensor, params: ModelParams, config: EncoderConfig,
                  mode: str, step: int, rng: Rng | None, part=None) -> Tensor:
    return apply_dropout(x, config.dropout, mode, step, rng,
                         alpha=params["adaptive.alpha"], beta=params["adaptive.beta"],
                         part=part)


# The cost of one more attention bucket, in score entries (n * T^2, each over
# all heads): its fixed Python, graph and numpy-call cost over the cost of one
# more entry. Measured at the default encoder (4 heads of 8) on a 2-vCPU Xeon
# VM with one BLAS thread, eval mode: about 70 us per bucket and layer against
# 0.05 us per entry, so the fits read 1300-1900. Training epochs and eval
# passes over batches of 7-47-token sentences read flat (within run noise)
# for constants between 750 and 6000.
_BUCKET_COST = 2000


class Bucket(NamedTuple):
    """Sequences whose attention core runs together, at their longest extent.

    The bucket's packed rows sit at ``slots``, a (sequence in the bucket,
    position) index into an [n, length] block; ``rows`` picks them from the
    packed rows. rows None means every packed row in order, and slots None
    every slot of the block in order (the batch has no padding).
    """

    seqs: np.ndarray                                  # [n] sequences, ascending
    length: int                                       # T_g: the longest extent
    bias: np.ndarray | None                           # [n, 1, 1, T_g] mask offsets
    rows: np.ndarray | None
    slots: tuple[np.ndarray, np.ndarray] | None


class Packing(NamedTuple):
    """Where the packed rows of a [B, T] batch sit among its B*T slots.

    The packed rows are every real token plus position 0 of every sequence
    (CLS pooling reads it even when it is masked), in row-major slot order.
    ``buckets`` split the sequences for the attention core.
    """

    mask: np.ndarray          # [B, T] 0/1 key mask for attention
    seqs: np.ndarray          # [N] sequence of each row
    positions: np.ndarray     # [N] position of each row
    full: bool                # every slot is a row
    buckets: tuple[Bucket, ...]

    @property
    def rows(self) -> int:
        return len(self.positions)

    @property
    def slots(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The rows' (b, t) index into [B, T], or None when every slot is a row."""
        return None if self.full else (self.seqs, self.positions)

    @property
    def cls_rows(self) -> np.ndarray:
        """[B] the packed row of each sequence's position 0 ([CLS]), in
        sequence order: the rows that CLS pooling reads."""
        return np.flatnonzero(self.positions == 0)

    def cls(self) -> "Queries":
        """The [CLS] rows alone as attention queries, one per sequence. Each
        bucket keeps its sequences and runs at query length 1, so its blocks
        are [n_g, H, 1, hd]; query row b is sequence b, so a bucket's rows
        are its sequences (None for the one bucket)."""
        one = len(self.buckets) == 1
        return Queries(self.cls_rows, tuple(
            bucket._replace(length=1, rows=None if one else bucket.seqs, slots=None)
            for bucket in self.buckets))


class Queries(NamedTuple):
    """The rows that attend, when they are a subset of a packing's rows:
    ``picked`` among its rows, laid out in one bucket per bucket of the
    packing (bucket g holds the queries of the packing's bucket g). The
    attention core reads a query bucket's placement only; the mask offsets
    come from the key bucket."""

    picked: np.ndarray          # [M] rows of the key packing
    buckets: tuple[Bucket, ...]

    @property
    def rows(self) -> int:
        return len(self.picked)


def _bucket_plan(extents: np.ndarray) -> list[np.ndarray]:
    """Groups of sequences, contiguous in stable extent order, that minimise
    sum(n_g * T_g^2) + _BUCKET_COST * G, where T_g is group g's longest extent
    and n_g its size.

    An optimal split never separates equal extents (moving them into the
    group of the longer ones costs nothing and may empty a group), so the DP
    runs over the distinct extents: O(m^2) for m <= T distinct values.
    """
    order = np.argsort(extents, kind="stable")
    ext = extents[order].tolist()
    ends = [i for i in range(1, len(ext)) if ext[i] != ext[i - 1]] + [len(ext)]
    starts = [0] + ends[:-1]
    best, first = [0], [0]      # best[j]: least cost of the first j distinct extents
    for j, end in enumerate(ends):
        t2 = ext[end - 1] ** 2
        i = min(range(j + 1), key=lambda i: best[i] + (end - starts[i]) * t2)
        first.append(i)
        best.append(best[i] + (end - starts[i]) * t2 + _BUCKET_COST)
    groups, j = [], len(ends)
    while j > 0:
        i = first[j]
        groups.append(np.sort(order[starts[i]:ends[j - 1]]))
        j = i
    return groups[::-1]


def _offsets(mask: np.ndarray) -> np.ndarray | None:
    """[n, 1, 1, T] additive scores for an [n, T] key mask: -1e9 at masked
    keys; None when no key is masked."""
    if np.all(mask == 1.0):
        return None
    return ((mask - 1.0) * 1e9).reshape(len(mask), 1, 1, mask.shape[1])


def pack(mask) -> Packing:
    """The packing of a [B, T] 0/1 mask, with its attention bucket plan.

    A sequence's extent is its last packed position + 1; the plan groups the
    sequences by extent (``_bucket_plan``). A batch with no padding, or a
    plan of one group, is one bucket over every sequence in order.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2 or mask.shape[1] < 1:
        raise ag.ShapeMismatchError(
            f"attention mask must be [B, T] with T >= 1, got {list(mask.shape)}")
    keep = mask != 0
    keep[:, 0] = True
    seqs, positions = np.nonzero(keep)
    full = bool(keep.all())
    if full:
        bucket = Bucket(np.arange(len(mask)), mask.shape[1], _offsets(mask), None, None)
        return Packing(mask, seqs, positions, full, (bucket,))
    b, t = mask.shape
    extents = t - np.argmax(keep[:, ::-1], axis=1)
    groups = _bucket_plan(extents)
    buckets = []
    for members in groups:
        length = int(extents[members].max())
        if len(groups) == 1:
            rows, slots = None, (seqs, positions)
        else:
            local = np.full(b, -1)            # each sequence's index in this bucket
            local[members] = np.arange(len(members))
            rows = np.flatnonzero(local[seqs] >= 0)
            slots = (local[seqs[rows]], positions[rows])
        buckets.append(Bucket(members, length, _offsets(mask[members, :length]), rows, slots))
    return Packing(mask, seqs, positions, full, tuple(buckets))


def embed(token_ids, packing: Packing, params: ModelParams, config: EncoderConfig,
          mode: str = "eval", step: int = 0, rng: Rng | None = None) -> Tensor:
    """Token plus position embeddings, layer-normed, then dropout: one [N, d]
    row per packed token of the [B, T] ids.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ag.ShapeMismatchError(f"token ids must be [B, T], got {list(ids.shape)}")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise ValueError(f"token id {bad} out of range for vocab size {config.vocab_size}")
    if ids.shape[1] > config.max_seq_len:
        raise ValueError(
            f"sequence length {ids.shape[1]} exceeds max_seq_len {config.max_seq_len}")
    if packing.mask.shape != ids.shape:
        raise ag.ShapeMismatchError(
            f"attention mask shape {list(packing.mask.shape)} != {list(ids.shape)}")
    tok = embedding(params["token_embeddings"], ids[packing.seqs, packing.positions])
    pos = embedding(params["position_embeddings"], packing.positions)
    h = layer_norm(tok + pos, params["emb_ln.gamma"], params["emb_ln.beta"])
    return _site_dropout(h, params, config, mode, step, rng)


def _to_heads(rows: np.ndarray, bucket: Bucket, num_heads: int) -> np.ndarray:
    """A bucket's packed [N, H*hd] rows placed per head: [n, H, T_g, hd],
    zero at the slots no row fills. With no padding (rows and slots None) it
    is a view of rows, not a copy."""
    shape = (len(bucket.seqs), bucket.length, num_heads, rows.shape[1] // num_heads)
    picked = rows if bucket.rows is None else rows[bucket.rows]
    if bucket.slots is None:
        block = picked.reshape(shape)
    else:
        block = np.zeros(shape)
        block[bucket.slots] = picked.reshape(-1, *shape[2:])
    return block.transpose(0, 2, 1, 3)


def _to_rows(blocks, packing: Packing | Queries) -> np.ndarray:
    """The inverse of ``_to_heads`` over every bucket: one [N, H*hd] array
    holding each bucket's filled slots at its rows, each row written once."""
    out = None
    for bucket, block in zip(packing.buckets, blocks):
        width = block.shape[1] * block.shape[3]
        picked = block.transpose(0, 2, 1, 3)
        if bucket.slots is not None:
            picked = picked[bucket.slots]
        picked = picked.reshape(-1, width)
        if bucket.rows is None:             # the one bucket holds every row
            return picked
        if out is None:
            out = np.empty((packing.rows, width))
        out[bucket.rows] = picked
    return out


def attention_core(q: Tensor, k: Tensor, v: Tensor, packing: Packing,
                   num_heads: int, query: Queries | None = None) -> Tensor:
    """Masked scaled dot-product attention over packed [M, d] query rows and
    [N, d] key and value rows, as one graph node.

    The key and value rows are laid out by ``packing``, the query rows by
    ``query`` (default: every packed row, M = N), which is bucketed like it.
    Bucket g runs at [n_g, H, Q_g, T_g], Q_g its query length: T_g, or 1 for
    the [CLS] queries of ``Packing.cls``. Returns the [M, d] context rows.
    The backward computes every bucket's score, softmax and context
    gradients with the numpy calls and operand layouts of separate matmul
    and softmax nodes, so its values are theirs bit for bit, and writes each
    row's q, k and v gradient once.

    The backward reads only the per-bucket blocks it saves. In a padded
    batch they are copies, so the q, k and v rows are freed once the caller
    drops them; without padding the blocks are views that keep the rows.
    """
    query = packing if query is None else query
    scale = 1.0 / np.sqrt(q.shape[1] // num_heads)
    saved = []                  # (qb, kb, vb, w) per bucket, all [n, H, ., .]
    for bucket, qbucket in zip(packing.buckets, query.buckets):
        qb = _to_heads(q.data, qbucket, num_heads)
        kb, vb = (_to_heads(x.data, bucket, num_heads) for x in (k, v))
        w = softmax(ag._wrap(qb @ kb.swapaxes(-1, -2)), scale=scale, bias=bucket.bias).data
        saved.append((qb, kb, vb, w))
    ctx = _to_rows([w @ vb for _, _, vb, w in saved], query)

    def backward(g):
        grads = ([], [], [])
        for qbucket, (qb, kb, vb, w) in zip(query.buckets, saved):
            gc = _to_heads(g, qbucket, num_heads)
            gw = gc @ vb.swapaxes(-1, -2)
            gs = ag.softmax_grad(gw, w, scale)
            grads[0].append(gs @ kb)
            grads[1].append((qb.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
            grads[2].append(w.swapaxes(-1, -2) @ gc)
        return (_to_rows(grads[0], query),
                _to_rows(grads[1], packing), _to_rows(grads[2], packing))

    return ag._make(ctx, (q, k, v), backward, "attention")


def multi_head_attention(hidden: Tensor, packing: Packing, layer: dict[str, Tensor],
                         num_heads: int, dropout_fn=None,
                         query: Queries | None = None) -> Tensor:
    """Scaled dot-product self-attention with residual add and layer norm.

    hidden is the batch's packed [N, d] rows; layer is one block's tensors,
    ``params.scope("layers.<i>.")``. The Q, K and V projections feed one
    ``attention_core`` node, which runs the scores, softmax and context per
    bucket of ``packing`` and returns context rows for the output
    projection. Masked key positions get a -1e9 additive score, which
    underflows to exactly zero attention weight after softmax, so padded
    slots never reach a real row.

    query (default: every row) picks the rows that attend: K and V run over
    all N rows, and the Q projection, attention context, output projection,
    residual add and layer norm over query's rows alone, which the result
    holds. With ``packing.cls()`` that is one [CLS] row per sequence.
    """
    n, d = hidden.shape
    if d % num_heads != 0:
        raise ag.ShapeMismatchError(f"hidden dim {d} not divisible by {num_heads} heads")
    if n != packing.rows:
        raise ag.ShapeMismatchError(
            f"{n} hidden rows, but the attention mask packs {packing.rows}")
    attending = hidden if query is None else ag.gather_rows(hidden, query.picked,
                                                            (query.rows, d))
    q = linear(attending, layer["attn.wq"], layer["attn.bq"])
    k = linear(hidden, layer["attn.wk"], layer["attn.bk"])
    v = linear(hidden, layer["attn.wv"], layer["attn.bv"])
    ctx = attention_core(q, k, v, packing, num_heads, query)
    out = linear(ctx, layer["attn.wo"], layer["attn.bo"])
    if dropout_fn is not None:
        out = dropout_fn(out)
    return layer_norm(attending + out, layer["ln1.gamma"], layer["ln1.beta"])


def encode(token_ids, mask, params: ModelParams, config: EncoderConfig,
           mode: str = "eval", step: int = 0, rng: Rng | None = None,
           sequence: bool = False) -> EncodeResult:
    """Full encoder pass: embeddings, num_layers transformer blocks, pooling.

    Every per-token op runs on the packed rows of ``pack(mask)``.

    Eval mode is a pure function of (token_ids, mask, params); train mode
    consumes the rng at every dropout site, one mask per site over all the
    packed rows in row order. So when the rows stack several views of the
    same sentences, one after another, each view draws its own mask
    entries, and the views differ as separate passes would.

    By default the pass computes only what ``pooled`` reads: the result's
    ``sequence`` is None, and under CLS pooling the last block runs only
    what the [CLS] rows need. Its K and V projections still cover all N
    rows; its queries, output projection, both dropout sites, both layer
    norms and the feed-forward run on the B [CLS] rows (``Packing.cls``).
    Each of its dropout sites draws its mask as for all N rows and keeps
    the [CLS] rows, so the rng stream and the [CLS] rows' masks are those
    of the full pass. Every caller in the package, ``embed`` included,
    reads only ``pooled`` and uses this default.

    sequence=True also returns the [B, T, d] token states and runs the full
    last block. ``pooled`` and every gradient agree between the two passes
    to rounding (1e-12 relative in the parity tests), not bit for bit: a
    matmul over B rows need not round like the same rows of one over N,
    and the weight gradients sum B rows instead of N rows with zeros among
    them. Under mean pooling, which reads every row, the two passes differ
    only in ``sequence``.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    packing = pack(mask)
    if config.pooling == "mean":
        empty = np.flatnonzero(packing.mask.sum(axis=1) == 0)
        if len(empty):
            raise EmptySequenceError(
                f"mean pooling needs a real token in every sequence; row "
                f"{int(empty[0])} has an all-zero mask")
    h = embed(token_ids, packing, params, config, mode=mode, step=step, rng=rng)
    cls_only = not sequence and config.pooling == "cls_tanh"
    last = packing.cls() if cls_only else None

    for i in range(config.num_layers):
        lp = params.scope(f"layers.{i}.")
        query = last if i == config.num_layers - 1 else None
        part = None if query is None else (query.picked, packing.rows)
        site = partial(_site_dropout, params=params, config=config, mode=mode,
                       step=step, rng=rng, part=part)
        h = multi_head_attention(h, packing, lp, config.num_heads, dropout_fn=site,
                                 query=query)
        f = linear(ag.gelu(linear(h, lp["ffn.w1"], lp["ffn.b1"])),
                   lp["ffn.w2"], lp["ffn.b2"])
        h = layer_norm(h + site(f), lp["ln2.gamma"], lp["ln2.beta"])

    b, t = packing.mask.shape
    if config.pooling == "cls_tanh":
        # after a cls-only last block, h is already the [B, d] [CLS] rows
        first = h if cls_only else ag.gather_rows(h, packing.cls_rows,
                                                  (b, config.hidden_dim))
        pooled = ag.tanh(linear(first, params["pooler.weight"], params["pooler.bias"]))
    else:
        # [B, N]: each row's mask value, in its own sequence's line
        weights = np.zeros((b, packing.rows))
        weights[packing.seqs, np.arange(packing.rows)] = packing.mask[packing.seqs,
                                                                      packing.positions]
        pooled = matmul(Tensor(weights), h) / Tensor(packing.mask.sum(axis=1, keepdims=True))
    if not sequence:
        return EncodeResult(sequence=None, pooled=pooled)
    return EncodeResult(ag.scatter_rows(h, packing.slots, (b, t, config.hidden_dim)),
                        pooled)
