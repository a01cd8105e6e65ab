"""The attention node rebuilds what it does not keep.

``encoder.attention_core`` is one graph node per layer: the Q/K/V
projections, the bucketed attention core and the output projection. It keeps
its input rows, the weights and each bucket's softmax row statistics, and its
backward rebuilds the Q, K and V blocks, the attention probabilities and the
context rows with the forward's numpy calls on the same operands. Its output
and every input and weight gradient must equal, bit for bit, those of the
composite it replaces, kept here as the reference: three ``linear`` nodes, a
core that saves its probabilities, and the output ``linear``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcse_forge import autograd as ag
from simcse_forge.autograd import Tensor
from simcse_forge.encoder import _to_heads, _to_rows, attention_core, pack

D = 8
NAMES = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


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


def reference(hidden, layer, packing, num_heads, query=None):
    """The composite the node replaces: Q, K and V linears, the saving core
    and the output linear."""
    attending = hidden if query is None else ag.gather_rows(
        hidden, query.picked, (query.rows, hidden.shape[1]))
    q = ag.linear(attending, layer["attn.wq"], layer["attn.bq"])
    k = ag.linear(hidden, layer["attn.wk"], layer["attn.bk"])
    v = ag.linear(hidden, layer["attn.wv"], layer["attn.bv"])
    ctx = saving_core(q, k, v, packing, num_heads, query)
    return ag.linear(ctx, layer["attn.wo"], layer["attn.bo"])


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


def operands(rows, d, seed):
    """Input rows and one layer's attention weights, all leaves with a
    gradient; the weights at a scale that gives the softmax some spread."""
    rng = np.random.default_rng(seed)
    hidden = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    layer = {f"attn.{name}": Tensor(rng.normal(size=(d, d) if name[0] == "w" else (d,))
                                    * (1.0 / np.sqrt(d) if name[0] == "w" else 0.1),
                                    requires_grad=True)
             for name in NAMES}
    return hidden, layer


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run(fn, hidden, layer, packing, num_heads, query, probe):
    """fn's output and the gradients of (output * probe).sum() on fresh
    copies of the leaves: the input rows', then each weight's in NAMES order."""
    hidden = hidden.copy()
    layer = {name: t.copy() for name, t in layer.items()}
    out = fn(hidden, layer, packing, num_heads, query)
    (out * Tensor(probe)).sum().backward()
    return out, [hidden.grad] + [layer[f"attn.{name}"].grad for name in NAMES]


def check_node(packing, query, num_heads, d, seed):
    m = packing.rows if query is None else query.rows
    hidden, layer = operands(packing.rows, d, seed)
    probe = np.random.default_rng(seed + 1).normal(size=(m, d))
    got, got_grads = run(attention_core, hidden, layer, packing, num_heads, query, probe)
    want, want_grads = run(reference, hidden, layer, packing, num_heads, query, probe)
    assert got.node.released and got.shape == (m, d)
    assert same_bits(got.data, want.data)
    for name, g, w in zip(("hidden",) + NAMES, got_grads, want_grads):
        assert same_bits(g, w), name
    with ag.no_grad():      # eval: no node, nothing kept, the same bits
        plain = attention_core(hidden, layer, packing, num_heads, query)
    assert plain.node is None and not plain.requires_grad
    assert same_bits(plain.data, want.data)


@pytest.mark.parametrize("num_heads", [1, 2])
@pytest.mark.parametrize("name", ["padded", "unpadded", "cls"])
def test_recomputing_core_matches_the_saving_core_bit_for_bit(name, num_heads):
    packing, query = layout(name)
    check_node(packing, query, num_heads, D, seed=3)


@st.composite
def masks(draw):
    """A [B, T] key mask: unpadded, padded, or padded with interior holes;
    a long sentence among short ones splits the batch into buckets."""
    kind = draw(st.sampled_from(["unpadded", "padded", "holes"]))
    b = draw(st.integers(1, 5))
    if kind == "unpadded":
        return np.ones((b, draw(st.integers(1, 9))))
    lengths = np.array(draw(st.lists(st.sampled_from([1, 2, 3, 5, 9, 20, 48]),
                                     min_size=b, max_size=b)))
    mask = (np.arange(lengths.max())[None, :] < lengths[:, None]).astype(np.float64)
    if kind == "holes":
        for row, n in enumerate(lengths):
            if n > 2:
                mask[row, draw(st.integers(1, n - 2))] = 0.0
    return mask


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mask=masks(), num_heads=st.integers(1, 4), head_dim=st.integers(1, 3),
       cls=st.booleans(), seed=st.integers(0, 2**16))
def test_node_matches_the_composite_over_layouts(mask, num_heads, head_dim, cls, seed):
    packing = pack(mask)
    check_node(packing, packing.cls() if cls else None, num_heads,
               num_heads * head_dim, seed)
