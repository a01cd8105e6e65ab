"""The bucketed attention core must not grow the autograd graph of a batch
without padding, the case of fixed-length inputs: one bucket, and no more
nodes than the packed layout built when every sequence ran at the batch's T.
The count is perfbench's own ``autograd.graph_nodes``, from a traced run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from simcse_forge import training
from simcse_forge.autograd import Tensor
from simcse_forge.data import Vocab, tokenize
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, init_params
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
def test_unpadded_run_builds_no_more_nodes_than_the_unbucketed_layout(layers):
    tracing = _load_tracing()
    vocab = Vocab.build(SENTENCES)
    config = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=layers,
                           num_heads=2, ffn_dim=16, max_seq_len=12,
                           dropout=DropoutPolicy(kind="standard", p=0.1))
    pool = [tokenize(s, vocab, config.max_seq_len) for s in SENTENCES]
    assert len({len(ids) for ids in pool}) == 1
    tracer = tracing.Tracer()
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=BATCH, lr=1e-3)
    with tracing.instrument(tracer):
        training.train_unsup_simcse(tc, config, vocab, pool, init_params(config, Rng(0)))
    counts = [span[4]["graph_nodes"] for span in tracer.spans
              if span[0] == "autograd.backward"]
    assert len(counts) == len(SENTENCES) // BATCH

    a = Tensor(Rng(1).normal((BATCH, config.hidden_dim)), requires_grad=True)
    b = Tensor(Rng(2).normal((BATCH, config.hidden_dim)), requires_grad=True)
    loss_nodes = tracing._graph_nodes(unsup_simcse_loss(a, b))
    bound = 2 * unbucketed_nodes_per_encode(layers) + loss_nodes
    assert max(counts) <= bound
