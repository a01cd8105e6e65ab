"""A backward walk releases the graph it walks: leaves keep their gradients,
intermediates lose theirs and their nodes, and a second walk over a released
graph raises GraphReleasedError before any gradient is written."""

import tracemalloc

import numpy as np
import pytest

from simcse_forge import autograd as ag
from simcse_forge.autograd import GraphReleasedError, Tensor
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, encode, init_params
from simcse_forge.objectives import unsup_simcse_loss
from simcse_forge.rng import Rng


def small_graph():
    """Leaves x, w and a three-op chain h -> y -> loss over them."""
    rng = Rng(7)
    x = Tensor(rng.normal((4, 3)), requires_grad=True)
    w = Tensor(rng.normal((3, 2)), requires_grad=True)
    h = ag.tanh(ag.matmul(x, w))
    y = h * h
    return x, w, h, y, y.sum()


def test_backward_releases_intermediates_and_keeps_leaf_grads():
    x, w, h, y, loss = small_graph()
    loss.backward()
    for t in (h, y, loss):
        assert t.grad is None
        assert t.node is ag.RELEASED
    assert x.grad is not None and w.grad is not None
    assert x.node is None and w.node is None
    assert ag.RELEASED.parents == ()


def test_second_backward_raises_and_leaves_leaf_grads_unchanged():
    x, w, _, _, loss = small_graph()
    loss.backward()
    before = [x.grad.copy(), w.grad.copy()]
    with pytest.raises(GraphReleasedError):
        loss.backward()
    assert np.array_equal(x.grad, before[0])
    assert np.array_equal(w.grad, before[1])


def test_new_loss_on_a_walked_intermediate_raises_before_any_rule_runs():
    x, w, h, _, loss = small_graph()
    loss.backward()
    before = [x.grad.copy(), w.grad.copy()]
    z = Tensor(np.ones((4, 2)), requires_grad=True)
    # z's branch is walkable; h's is not, so nothing may be written to z either
    again = (z * z).sum() + (h * 2.0).sum()
    with pytest.raises(GraphReleasedError):
        again.backward()
    assert z.grad is None
    assert np.array_equal(x.grad, before[0])
    assert np.array_equal(w.grad, before[1])


def test_leaf_loss_keeps_its_grad():
    x = Tensor([2.0], requires_grad=True)
    x.backward()
    assert np.array_equal(x.grad, [1.0])
    assert x.node is None


def test_two_view_step_frees_its_graph_on_backward():
    """After a train-mode encode of two dropout views and the unsup loss's
    backward, only the parameter gradients are new memory, though the loss
    itself is still referenced."""
    config = EncoderConfig(vocab_size=40, hidden_dim=16, num_layers=2,
                           num_heads=2, ffn_dim=32, max_seq_len=16,
                           dropout=DropoutPolicy(kind="standard", p=0.1))
    params = init_params(config, Rng(0))
    rng = np.random.default_rng(3)
    lengths = rng.integers(3, 15, size=8)
    mask = (np.arange(14)[None, :] < lengths[:, None]).astype(np.float64)
    ids = rng.integers(4, 40, size=mask.shape) * mask.astype(np.int64)
    ids[:, 0] = 1
    dropout_rng = Rng(1)

    def forward():
        h = encode(ids, mask, params, config, mode="train", rng=dropout_rng).pooled
        h_plus = encode(ids, mask, params, config, mode="train", rng=dropout_rng).pooled
        return unsup_simcse_loss(h, h_plus)

    forward().backward()        # warm-up: first-call allocations stay out
    params.zero_grads()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = forward()
        graph = tracemalloc.get_traced_memory()[0] - before
        loss.backward()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in params.values() if p.grad is not None)
    held = after - before - grads
    margin = 32 * 1024
    assert graph > 10 * margin       # the check can see a graph being kept
    assert held < margin, f"{held} bytes still held after backward (graph was {graph})"
    assert loss.node is ag.RELEASED
