"""The autograd graph holds only what its backward rules read.

A node's parents are graph handles, not Tensors, and no rule's closure holds
an operand Tensor. So an intermediate whose array no rule reads is freed
once the caller drops it, while the graph built on it still lives: checked
with ``weakref.ref`` on the arrays of a real train-mode encode.
"""

import gc
import types
import weakref

import numpy as np
import pytest

from simcse_forge import autograd as ag
from simcse_forge import encoder
from simcse_forge.autograd import Tensor
from simcse_forge.data import Batch, pad_batch
from simcse_forge.dropout import DropoutPolicy, adaptive_dropout, standard_dropout
from simcse_forge.encoder import EncoderConfig, encode, init_params, pack
from simcse_forge.objectives import sup_simcse_loss, unsup_simcse_loss
from simcse_forge.rng import Rng
from simcse_forge.training import encode_views


def config_with(kind: str, layers: int = 2) -> EncoderConfig:
    return EncoderConfig(vocab_size=30, hidden_dim=8, num_layers=layers, num_heads=2,
                         ffn_dim=16, max_seq_len=12,
                         dropout=DropoutPolicy(kind=kind, p=0.2, total_steps=4))


def padded_batch(lengths, t=9, seed=0):
    rng = np.random.default_rng(seed)
    mask = (np.arange(t)[None, :] < np.array(lengths)[:, None]).astype(np.float64)
    ids = rng.integers(4, 30, size=mask.shape) * mask.astype(np.int64)
    ids[:, 0] = 1
    return ids, mask


def graph_nodes(loss):
    """Every node reachable from the loss."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        nodes.append(t.node)
        stack.extend(p for p in t.node.parents if p.requires_grad)
    return nodes


def saved(node):
    """What a node's backward rule captured, one level into tuples and lists."""
    out = []
    for cell in node.backward_fn.__closure__ or ():
        value = cell.cell_contents
        out.append(value)
        if isinstance(value, (tuple, list)):
            for item in value:
                out.extend(item if isinstance(item, (tuple, list)) else [item])
    return out


@pytest.mark.parametrize("kind", ["standard", "curriculum", "adaptive"])
def test_no_rule_holds_a_tensor_and_parents_are_handles(kind):
    config = config_with(kind)
    params = init_params(config, Rng(0))
    ids, mask = padded_batch([9, 3, 6, 2])
    rng = Rng(5)
    h, h_plus, h_minus = (encode(ids, mask, params, config, mode="train", step=2,
                                 rng=rng).pooled for _ in range(3))
    loss = unsup_simcse_loss(h, h_plus) + sup_simcse_loss(h, h_plus, h_minus)
    nodes = graph_nodes(loss)
    assert {"attention", "layer_norm", "linear", "gelu", "add"} <= {n.op for n in nodes}
    for node in nodes:
        assert not any(isinstance(v, Tensor) for v in saved(node)), node.op
        for p in node.parents:
            assert isinstance(p, ag.Node) or p.node is None, node.op


def test_walk_releases_the_user_visible_tensor_through_its_handle():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = ag.tanh(x) * 2.0
    handle = y.node.parents[0]
    assert isinstance(handle, ag.Node) and handle.node.op == "tanh"
    y.sum().backward()
    assert handle.released and handle.grad is None
    assert y.node.released and y.node.grad is None


def record(monkeypatch, name, keep):
    """Wrap encoder.<name>, appending keep(args, result) per call."""
    calls, original = [], getattr(encoder, name)

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(keep(args, result))
        return result

    monkeypatch.setattr(encoder, name, wrapped)
    return calls


def test_unread_intermediates_of_an_encode_are_freed_before_backward(monkeypatch):
    """Dropout inputs (the attention nodes' and FFN linear outputs, and the
    embedding layer norm's output), the residual dropout outputs and every
    layer norm's input (residual and embedding sums): no rule reads them, so
    they are gone while the graph lives. The attention nodes build no Q/K/V
    tensor at all."""
    config = config_with("standard")
    params = init_params(config, Rng(0))
    ids, mask = padded_batch([9, 3, 6, 2])
    dropouts = record(monkeypatch, "apply_dropout",
                      lambda a, r: (weakref.ref(a[0].data), weakref.ref(r.data)))
    norms = record(monkeypatch, "layer_norm", lambda a, r: weakref.ref(a[0].data))
    pooled = encode(ids, mask, params, config, mode="train", rng=Rng(1),
                    sequence=True).pooled
    gc.collect()
    sites = 1 + 2 * config.num_layers
    assert len(dropouts) == sites and len(norms) == sites
    assert all(inp() is None for inp, _ in dropouts)
    # the embedding's dropout output is the first layer's input, which the
    # Q/K/V weight gradients read; every later one only feeds a residual add
    assert dropouts[0][1]() is not None
    assert all(out() is None for _, out in dropouts[1:])
    assert all(ref() is None for ref in norms)
    pooled.sum().backward()
    assert all(p.grad is not None for name, p in params.items()
               if name.startswith(("layers.", "token_", "position_", "emb_ln", "pooler")))


def test_unpadded_batch_keeps_its_qkv_rows_as_the_core_reads_them(monkeypatch):
    # with no padding the per-head blocks are views of the projected rows;
    # the node rebuilds them in backward from its input rows, so it keeps
    # those rows, and no other [N, d] array, while the graph lives
    config = config_with("standard", layers=1)
    params = init_params(config, Rng(0))
    ids, mask = padded_batch([7, 7, 7], t=7)
    assert pack(mask).full
    calls = record(monkeypatch, "attention_core",
                   lambda a, r: (weakref.ref(a[0].data), r.node))
    pooled = encode(ids, mask, params, config, mode="train", rng=Rng(1)).pooled
    gc.collect()
    (rows, node), = calls
    assert rows() is not None
    arrays = [v for v in saved(node) if isinstance(v, np.ndarray)]
    assert any(a is rows() for a in arrays)
    assert all(a is rows() or a.shape[-1] != config.hidden_dim or a.shape[-2] == config.hidden_dim
               for a in arrays if a.ndim >= 2)
    del pooled, node, arrays
    calls.clear()
    gc.collect()
    assert rows() is None


def test_dropout_node_saves_a_one_byte_mask():
    # standard dropout saves its bool mask alone; the adaptive node saves its
    # bool mask, x's own array (the straight-through gradient of the keep
    # probability reads it, and so does alpha's) and the keep probability pi
    n, d = 37, 8
    x = Tensor(Rng(2).normal((n, d)), requires_grad=True)
    alpha, beta = Tensor(0.7, requires_grad=True), Tensor(-0.2, requires_grad=True)
    standard = standard_dropout(x, 0.25, "train", Rng(3))
    adaptive = adaptive_dropout(x, x, DropoutPolicy(kind="adaptive"), "train", Rng(3),
                                alpha=alpha, beta=beta)
    pi = ag._sigmoid(0.7 * x.data - 0.2)
    for out, full_size in ((standard, 0), (adaptive, 2)):
        assert out.node.op == "dropout"
        arrays = [v for v in saved(out.node) if isinstance(v, np.ndarray)]
        masks = [a for a in arrays if a.dtype == np.bool_]
        assert len(masks) == 1 and masks[0].nbytes == n * d
        rest = {id(a): a for a in arrays if a is not masks[0] and a.size > 1}
        assert len(rest) == full_size
        if full_size:
            assert id(x.data) in rest
            (kept_pi,) = [a for a in rest.values() if a is not x.data]
            assert kept_pi.tobytes() == pi.tobytes()
        # what remains is 0-d: alpha's value, which the activations' gradient reads
        assert all(a.ndim == 0 for a in arrays if a.size == 1)


def test_gelu_node_saves_only_its_slope(monkeypatch):
    config = config_with("standard")
    params = init_params(config, Rng(0))
    ids, mask = padded_batch([9, 3, 6, 2])
    calls, original = [], ag.gelu

    def wrapped(a):
        out = original(a)
        calls.append((a.shape, out.node))
        return out

    monkeypatch.setattr(ag, "gelu", wrapped)
    rng = Rng(5)
    h, h_plus = (encode(ids, mask, params, config, mode="train", rng=rng).pooled
                 for _ in range(2))
    nodes = [n for n in graph_nodes(unsup_simcse_loss(h, h_plus)) if n.op == "gelu"]
    assert len(nodes) == len(calls) == 2 * config.num_layers
    assert {id(n) for n in nodes} == {id(node) for _, node in calls}
    for shape, node in calls:
        (slope,) = saved(node)
        assert isinstance(slope, np.ndarray) and slope.dtype == np.float64
        assert slope.shape == shape


def test_cls_only_last_gelu_saves_a_slope_per_sequence(monkeypatch):
    # encode(..., sequence=False) runs the last block's FFN on the [CLS] rows
    config = config_with("standard")
    ids, mask = padded_batch([9, 3, 6, 2])
    shapes, original = [], ag.gelu

    def wrapped(a):
        out = original(a)
        (slope,) = saved(out.node)
        shapes.append(slope.shape)
        return out

    monkeypatch.setattr(ag, "gelu", wrapped)
    params, rng = init_params(config, Rng(0)), Rng(5)
    for _ in range(2):
        encode(ids, mask, params, config, mode="train", rng=rng, sequence=False)
    n, ffn = pack(mask).rows, config.ffn_dim
    assert shapes == [(n, ffn), (len(ids), ffn)] * 2


def test_gelu_without_a_gradient_saves_nothing_and_keeps_its_bytes():
    x = Rng(4).normal((37, 16), std=3.0)
    graded = ag.gelu(Tensor(x, requires_grad=True))
    assert graded.node.op == "gelu"
    with ag.no_grad():
        plain = ag.gelu(Tensor(x, requires_grad=True))
    constant = ag.gelu(Tensor(x))
    for out in (plain, constant):
        assert out.node is None and not out.requires_grad
        assert out.data.tobytes() == graded.data.tobytes()


def test_attention_node_keeps_no_probability_block(monkeypatch):
    # the node keeps its input rows and each bucket's softmax row statistics
    # [n, H, Q, 1]; it rebuilds the Q, K and V blocks, the [n, H, Q, T]
    # probabilities and the context rows in backward, so none of them, nor
    # the [N, d] rows they come from, outlives the forward pass: in a batch
    # of several buckets, and in an unpadded one, whose blocks are views
    config = EncoderConfig(vocab_size=30, hidden_dim=8, num_layers=2, num_heads=2,
                           ffn_dim=16, max_seq_len=64,
                           dropout=DropoutPolicy(kind="standard", p=0.2))
    params = init_params(config, Rng(0))
    calls = record(monkeypatch, "attention_core", lambda a, r: (a[0].data, r.node))
    for lengths in ([3, 2, 3, 60, 25, 3, 25, 24], [7, 7, 7]):
        ids, mask = padded_batch(lengths, t=max(lengths))
        packing = pack(mask)
        assert len(packing.buckets) >= 3 or packing.full
        for sequence in (True, False):
            calls.clear()
            pooled = encode(ids, mask, params, config, mode="train", rng=Rng(1),
                            sequence=sequence).pooled
            nodes = [n for n in graph_nodes(pooled.sum()) if n.op == "attention"]
            assert len(nodes) == len(calls) == config.num_layers
            assert {id(n) for n in nodes} == {id(node) for _, node in calls}
            d = config.hidden_dim
            for rows, node in calls:
                arrays = [v for v in saved(node) if isinstance(v, np.ndarray)]
                stats = [a for a in arrays if a.ndim == 4]
                assert stats and all(a.shape[1] == config.num_heads and a.shape[-1] == 1
                                     for a in stats)
                # rows of width d: the input rows and the [d, d] weights
                held = [a for a in arrays if a.ndim >= 2 and a.shape[-1] == d]
                assert any(a is rows for a in held)
                assert all(a is rows or a.shape[-2] == d for a in held)


def held_arrays(value, seen):
    """Every array value reaches through tuples, lists, dicts and function
    closures: what a rule's closure keeps alive."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from held_arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from held_arrays(item, seen)
    elif isinstance(value, types.FunctionType):
        for cell in value.__closure__ or ():
            yield from held_arrays(cell.cell_contents, seen)


def base_array(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


# Graph bytes per packed row at the end of the forward pass below. The
# attention nodes keep their input rows and softmax row statistics but no
# Q/K/V blocks or context rows: about 10.5 kB per row, against 14.3 kB when
# the Q/K/V projections, the attention core and the output projection were
# separate nodes.
GRAPH_BYTES_PER_ROW = 11_000


def test_unsup_step_graph_stays_within_its_byte_budget():
    # the default encoder, 32 sentences of 7-47 tokens stacked as two views
    config = EncoderConfig(vocab_size=1000,
                           dropout=DropoutPolicy(kind="standard", p=0.1))
    params = init_params(config, Rng(0))
    rng = np.random.default_rng(7)
    sentences = [[1] + list(rng.integers(4, 1000, size=n - 1))
                 for n in rng.integers(7, 48, size=32)]
    batch = Batch(*pad_batch(sentences * 2), views=2)
    loss = unsup_simcse_loss(*encode_views(batch, params, config, mode="train",
                                           rng=Rng(1)))
    own = {id(base_array(p.data)) for p in params.values()}
    arrays = {id(base_array(a)): base_array(a)
              for node in graph_nodes(loss)
              for a in held_arrays(node.backward_fn, set())}
    held = sum(a.nbytes for key, a in arrays.items() if key not in own)
    rows = pack(batch.mask).rows
    assert held / rows < GRAPH_BYTES_PER_ROW, f"{held / rows:.0f} bytes per packed row"
