"""The attention core rebuilds its softmax output in backward.

``encoder.attention_core`` keeps each bucket's Q, K and V blocks but not its
[n, H, Q, T] attention probabilities; its backward recomputes them with the
forward's numpy calls on the same operands. Its output and q, k and v
gradients must equal, bit for bit, those of a core that saves the
probabilities, kept here as the reference.
"""

import numpy as np
import pytest

from simcse_forge import autograd as ag
from simcse_forge.autograd import Tensor
from simcse_forge.encoder import _to_heads, _to_rows, attention_core, pack

D = 8


def saving_core(q, k, v, packing, num_heads, query=None):
    """The attention core as it ran when it saved every bucket's softmax output."""
    query = packing if query is None else query
    scale = 1.0 / np.sqrt(q.shape[1] // num_heads)
    saved = []
    for bucket, qbucket in zip(packing.buckets, query.buckets):
        qb = _to_heads(q.data, qbucket, num_heads)
        kb, vb = (_to_heads(x.data, bucket, num_heads) for x in (k, v))
        w = ag.softmax(ag._wrap(qb @ kb.swapaxes(-1, -2)), scale=scale,
                       bias=bucket.bias).data
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


def layout(name):
    """(packing, query) of a padded batch in several buckets (with an
    interior hole), of an unpadded batch, or of a padded batch's [CLS] rows."""
    if name == "unpadded":
        return pack(np.ones((5, 7))), None
    lengths = np.array([3, 2, 3, 60, 25, 3, 25, 24])
    mask = (np.arange(62)[None, :] < lengths[:, None]).astype(np.float64)
    mask[4, 10] = 0.0
    packing = pack(mask)
    assert len(packing.buckets) >= 3
    return packing, packing.cls() if name == "cls" else None


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("num_heads", [1, 2])
@pytest.mark.parametrize("name", ["padded", "unpadded", "cls"])
def test_recomputing_core_matches_the_saving_core_bit_for_bit(name, num_heads):
    packing, query = layout(name)
    m = packing.rows if query is None else query.rows
    rng = np.random.default_rng(3)
    q = Tensor(rng.normal(size=(m, D)), requires_grad=True)
    k, v = (Tensor(rng.normal(size=(packing.rows, D)), requires_grad=True)
            for _ in range(2))
    g = rng.normal(size=(m, D))
    got = attention_core(q, k, v, packing, num_heads, query)
    want = saving_core(q, k, v, packing, num_heads, query)
    assert same_bits(got.data, want.data)
    for got_grad, want_grad in zip(got.node.backward_fn(g), want.node.backward_fn(g)):
        assert same_bits(got_grad, want_grad)
    with ag.no_grad():
        plain = attention_core(q, k, v, packing, num_heads, query)
    assert plain.node is None and same_bits(plain.data, want.data)
