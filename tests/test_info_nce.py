"""The contrastive losses as one ``info_nce`` graph node.

The node's loss and hand-written gradients are checked two ways: against
central finite differences on the anchors and on every candidate batch, and
against the same InfoNCE composed from the generic autograd ops (row
normalization, matmul, concat and the cross entropy of the similarity rows).
"""

import math

import numpy as np
import pytest

from simcse_forge import autograd as ag
from simcse_forge.autograd import ShapeMismatchError, Tensor
from simcse_forge.data import (SYNTH_SCHEMAS, Vocab, examples_from_rows,
                               make_batches, synth_toy_corpus, texts_of_rows)
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.objectives import (ce_loss, sst_logits, sup_simcse_loss,
                                     unsup_simcse_loss)
from simcse_forge.rng import Rng
from simcse_forge.training import TrainConfig, encode_views, task_loss


def composed_info_nce(h, candidates, tau):
    """InfoNCE built from generic ops, one graph node per op."""
    def unit(x):
        return x / ag.sqrt((x * x).sum(axis=-1, keepdims=True))

    hn = unit(h)
    sims = [ag.matmul(hn, ag.transpose(unit(c))) * (1.0 / tau) for c in candidates]
    sim = sims[0] if len(sims) == 1 else ag.concat(sims, axis=1)
    return ce_loss(sim, np.arange(h.shape[0]))


def node_loss(h, candidates, tau):
    if len(candidates) == 1:
        return unsup_simcse_loss(h, candidates[0], tau)
    return sup_simcse_loss(h, *candidates, tau)


def batches(views, n=5, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, d)) for _ in range(views)]


def grads_of(loss_fn, arrays, tau):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = loss_fn(tensors[0], tensors[1:], tau)
    loss.backward()
    return loss.item(), [t.grad for t in tensors]


@pytest.mark.parametrize("views", [2, 3], ids=["unsup", "sup"])
def test_node_gradients_match_finite_differences(views):
    arrays = batches(views, n=4, d=3, seed=views)
    tau = 0.2
    _, grads = grads_of(node_loss, arrays, tau)
    for i, base in enumerate(arrays):
        def f(x, i=i):
            rest = [Tensor(a) for a in arrays]
            rest[i] = x
            return node_loss(rest[0], rest[1:], tau)

        fd = ag.finite_diff_grad(f, Tensor(base)).data
        assert np.max(np.abs(grads[i] - fd) / np.maximum(1.0, np.abs(fd))) < 1e-6, i


@pytest.mark.parametrize("tau", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("views", [2, 3], ids=["unsup", "sup"])
def test_node_matches_the_composed_chain(views, tau):
    arrays = batches(views, n=7, d=5, seed=11 * views)
    arrays[1][2] *= 40.0        # a long row: the normalization must absorb it
    loss, grads = grads_of(node_loss, arrays, tau)
    want_loss, want_grads = grads_of(composed_info_nce, arrays, tau)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for got, want in zip(grads, want_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("views", [2, 3], ids=["unsup", "sup"])
def test_one_info_nce_node_per_loss(views):
    tensors = [Tensor(a, requires_grad=True) for a in batches(views)]
    loss = node_loss(tensors[0], tensors[1:], 0.05)
    assert loss.node.op == "info_nce"
    assert len(loss.node.parents) == views
    # every parent is a leaf here, so the loss's node is the whole graph
    assert all(p.node is None for p in loss.node.parents)


def test_node_feeds_only_the_inputs_that_need_a_gradient():
    h, hp, hm = batches(3)
    anchor = Tensor(h, requires_grad=True)
    sup_simcse_loss(anchor, Tensor(hp), Tensor(hm)).backward()
    _, want = grads_of(composed_info_nce, [h, hp, hm], 0.05)
    assert np.max(np.abs(anchor.grad - want[0])) <= 1e-12 * np.max(np.abs(want[0]))


def test_no_grad_builds_no_node():
    with ag.no_grad():
        loss = unsup_simcse_loss(*(Tensor(a, requires_grad=True) for a in batches(2)))
    assert loss.node is None and not loss.requires_grad


# -- shape checks -----------------------------------------------------------------

def test_sup_rejects_a_short_positive_batch():
    h, hp, hm = batches(3, n=4, d=8)
    with pytest.raises(ShapeMismatchError, match=r"\[4, 8\], got \[3, 8\]"):
        sup_simcse_loss(Tensor(h), Tensor(hp[:3]), Tensor(hm))


def test_sup_rejects_a_mismatched_negative_batch():
    h, hp, hm = batches(3, n=4, d=8)
    for bad in (hm[:3], np.vstack([hm, hm[:1]]), hm[:, :7]):
        with pytest.raises(ShapeMismatchError):
            sup_simcse_loss(Tensor(h), Tensor(hp), Tensor(bad))


def test_unsup_rejects_extra_positive_rows():
    h, hp = batches(2, n=4, d=8)
    with pytest.raises(ShapeMismatchError):
        unsup_simcse_loss(Tensor(h), Tensor(np.vstack([hp, hp[:2]])))
    with pytest.raises(ShapeMismatchError):
        unsup_simcse_loss(Tensor(h.reshape(2, 2, 8)), Tensor(hp.reshape(2, 2, 8)))


# -- ce_loss labels ----------------------------------------------------------------

@pytest.mark.parametrize("labels, error", [
    ([0, -1], ValueError),                  # would score the last class
    ([0, 3], ValueError),                   # K itself: past the last class
    ([1], ShapeMismatchError),              # would broadcast over both rows
    ([[0], [1]], ShapeMismatchError),
    ([0, 1, 2], ShapeMismatchError),
    ([0.0, 1.5], ValueError),
])
def test_ce_rejects_malformed_labels(labels, error):
    logits = Tensor(np.array([[0.5, -0.2, 1.1], [0.3, 0.0, -0.4]]))
    with pytest.raises(error):
        ce_loss(logits, labels)


def test_ce_accepts_every_class_and_integer_dtypes():
    z = np.array([[0.5, -0.2, 1.1], [0.3, 0.0, -0.4]])
    for labels in ([0, 2], np.array([0, 2], dtype=np.int32), np.array([0, 2], dtype=np.uint8)):
        want = np.mean([math.log(np.exp(row).sum()) - row[k] for row, k in zip(z, [0, 2])])
        assert ce_loss(Tensor(z), labels).item() == pytest.approx(want, abs=1e-12)


def test_sst_ce_path_scores_the_batch_labels():
    rows = synth_toy_corpus("sst", 6, Rng(0))
    vocab = Vocab.build(texts_of_rows(rows, SYNTH_SCHEMAS["sst"]))
    examples = examples_from_rows(rows, SYNTH_SCHEMAS["sst"], vocab, max_len=12)
    config = EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=1,
                           num_heads=2, ffn_dim=16, max_seq_len=12)
    batch = make_batches(examples, 6)[0]
    params = init_params(config, Rng(0))
    tc = TrainConfig(task="sst", sst_loss="ce")
    loss = task_loss("sst", batch, params, config, tc, mode="eval")
    z = sst_logits(encode_views(batch, params, config, mode="eval")[0], params).data
    want = np.mean([math.log(np.exp(row).sum()) - row[k] for row, k in zip(z, batch.target)])
    assert loss.item() == pytest.approx(want, abs=1e-12)
