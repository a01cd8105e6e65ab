"""The bucketed attention core must not grow the autograd graph of a batch
without padding, the case of fixed-length inputs: one bucket, and no more
nodes than the packed layout built when every sequence ran at the batch's T.
The count is perfbench's own graph walk (``tracing._graph_nodes``), taken as
``Tensor.backward`` is entered: the walk releases the graph, so a count taken
after it would read an empty graph.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from simcse_forge import training
from simcse_forge import autograd
from simcse_forge.autograd import Tensor
from simcse_forge.data import Vocab, examples_from_rows, pad_batch, tokenize
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, encode, init_params
from simcse_forge.objectives import unsup_simcse_loss
from simcse_forge.rng import Rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Four words each, so every batch is [B, 6] with no padding.
SENTENCES = ["the dog ran home", "a cat sat down", "birds sing very loud",
             "the river is cold", "moon over the harbor", "old clock ticks on"]
BATCH = 3


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_graph",
                                                  PERFBENCH / "tracing.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unbucketed_nodes_per_encode(layers: int) -> int:
    """Graph nodes of one train-mode encode of an unpadded batch in the
    packed layout that ran the attention core at the batch's T, with
    standard dropout (one node per site) and CLS pooling."""
    embeddings = 5      # two lookups, add, layer norm, dropout
    projections = 6     # Q, K, V: matmul and bias add each
    # scatter and head transpose for Q, K and V, key transpose, scores
    # matmul, softmax, context matmul, context transpose, gather
    core = 12
    attention_out = 5   # output matmul, bias add, dropout, residual add, layer norm
    ffn = 8             # matmul, add, gelu, matmul, add, dropout, residual, layer norm
    pooling = 4         # position-0 gather, matmul, add, tanh
    return embeddings + layers * (projections + core + attention_out + ffn) + pooling


@pytest.mark.parametrize("layers", [1, 2])
def test_unpadded_run_builds_no_more_nodes_than_the_unbucketed_layout(layers, monkeypatch):
    tracing = _load_tracing()
    vocab = Vocab.build(SENTENCES)
    config = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=layers,
                           num_heads=2, ffn_dim=16, max_seq_len=12,
                           dropout=DropoutPolicy(kind="standard", p=0.1))
    pool = [tokenize(s, vocab, config.max_seq_len) for s in SENTENCES]
    assert len({len(ids) for ids in pool}) == 1
    counts = []
    backward = autograd.Tensor.backward

    def counted(loss):
        counts.append(tracing._graph_nodes(loss))
        return backward(loss)

    monkeypatch.setattr(autograd.Tensor, "backward", counted)
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=BATCH, lr=1e-3)
    training.train_unsup_simcse(tc, config, vocab, pool, init_params(config, Rng(0)))
    assert len(counts) == len(SENTENCES) // BATCH

    a = Tensor(Rng(1).normal((BATCH, config.hidden_dim)), requires_grad=True)
    b = Tensor(Rng(2).normal((BATCH, config.hidden_dim)), requires_grad=True)
    loss_nodes = tracing._graph_nodes(unsup_simcse_loss(a, b))
    bound = 2 * unbucketed_nodes_per_encode(layers) + loss_nodes
    assert min(counts) > 0
    assert max(counts) <= bound


@pytest.mark.parametrize("layers", [1, 2])
def test_adaptive_dropout_adds_no_node_over_standard(layers):
    # keep probability, mask and straight-through gradient are all one
    # dropout node, as standard dropout's mask is
    tracing = _load_tracing()
    vocab = Vocab.build(SENTENCES)
    ids, mask = pad_batch([tokenize(s, vocab, 12) for s in SENTENCES])
    counts = []
    for policy in (DropoutPolicy(kind="standard", p=0.1), DropoutPolicy(kind="adaptive")):
        config = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=layers,
                               num_heads=2, ffn_dim=16, max_seq_len=12, dropout=policy)
        params = init_params(config, Rng(0))
        pooled = encode(ids, mask, params, config, mode="train", rng=Rng(1)).pooled
        counts.append(tracing._graph_nodes(pooled))
    assert counts[1] == counts[0]


def cls_only_nodes_per_encode(layers: int) -> int:
    """Graph nodes of one train-mode encode(..., sequence=False) with
    standard dropout and CLS pooling. The cls-only last block gathers its
    [CLS] rows once (one node), and pooling then needs no gather, so the
    count equals the full pass's."""
    embeddings = 5      # two lookups, add, layer norm, dropout
    # the attention node (Q/K/V and output projections and the core), dropout,
    # residual add, layer norm; FFN linear, gelu, linear, dropout, residual
    # add, layer norm
    block = 10
    pooling = 3         # position-0 gather, linear, tanh
    return embeddings + layers * block + pooling


@pytest.mark.parametrize("layers", [1, 2])
def test_unsup_run_pins_the_cls_only_node_count(layers, monkeypatch):
    tracing = _load_tracing()
    vocab = Vocab.build(SENTENCES)
    config = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=layers,
                           num_heads=2, ffn_dim=16, max_seq_len=12,
                           dropout=DropoutPolicy(kind="standard", p=0.1))
    pool = [tokenize(s, vocab, config.max_seq_len) for s in SENTENCES]
    counts = []
    backward = autograd.Tensor.backward

    def counted(loss):
        counts.append(tracing._graph_nodes(loss))
        return backward(loss)

    monkeypatch.setattr(autograd.Tensor, "backward", counted)
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=BATCH, lr=1e-3)
    training.train_unsup_simcse(tc, config, vocab, pool, init_params(config, Rng(0)))

    a = Tensor(Rng(1).normal((BATCH, config.hidden_dim)), requires_grad=True)
    b = Tensor(Rng(2).normal((BATCH, config.hidden_dim)), requires_grad=True)
    loss_nodes = tracing._graph_nodes(unsup_simcse_loss(a, b))
    # one encode of both views, then one row-block gather per view
    assert counts == [cls_only_nodes_per_encode(layers) + 2 + loss_nodes] * 2

    ids, mask = pad_batch(pool[:BATCH])
    params = init_params(config, Rng(0))
    full, cls = (tracing._graph_nodes(encode(ids, mask, params, config, mode="train",
                                             rng=Rng(1), sequence=sequence).pooled)
                 for sequence in (True, False))
    assert full == cls == cls_only_nodes_per_encode(layers)


def test_two_tier_size_adaptive_sup_step_pins_22_nodes(monkeypatch):
    # the two-tier toy encoder (d=16, one layer) under adaptive dropout: one
    # encode of the anchor, positive and hard-negative columns, a row-block
    # gather per column and the one info_nce node
    tracing = _load_tracing()
    vocab = Vocab.build(SENTENCES)
    rows = list(zip(SENTENCES, SENTENCES[1:], SENTENCES[2:]))[:4]
    triplets = examples_from_rows(rows, "triplet", vocab, 16)
    config = EncoderConfig(vocab_size=len(vocab), hidden_dim=16, num_layers=1,
                           num_heads=2, ffn_dim=32, max_seq_len=16,
                           dropout=DropoutPolicy(kind="adaptive"))
    counts = []
    backward = autograd.Tensor.backward

    def counted(loss):
        counts.append(tracing._graph_nodes(loss))
        return backward(loss)

    monkeypatch.setattr(autograd.Tensor, "backward", counted)
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=2, lr=1e-3)
    training.train_sup_simcse(tc, config, vocab, triplets, init_params(config, Rng(0)))
    assert counts == [cls_only_nodes_per_encode(1) + 3 + 1] * 2 == [22, 22]
