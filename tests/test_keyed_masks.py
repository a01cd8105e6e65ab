"""Train-mode dropout masks keyed by slot: a sentence's masks are a function
of the rng stream and its batch row alone, and every dropout site draws only
the rows it computes.

``encode`` keys each packed row by its slot b * max_seq_len + t, so the same
sentence at the same row of two batches gets the same masks whatever its
neighbours, the padding width or the attention bucket plan, and each site
takes one key from the stream whatever its row count.
"""

import numpy as np
import pytest

from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, encode, init_params, pack
from simcse_forge.rng import Rng

POLICIES = {
    "standard": DropoutPolicy(kind="standard", p=0.2),
    "curriculum": DropoutPolicy(kind="curriculum", p=0.3, total_steps=10),
    "adaptive": DropoutPolicy(kind="adaptive", alpha=1.5, beta=0.5),
}

SENTENCE = [1, 7, 12, 9, 22, 2]          # [CLS] ... [SEP]


def config_with(kind, pooling, num_layers=2):
    return EncoderConfig(vocab_size=30, hidden_dim=8, num_layers=num_layers,
                         num_heads=2, ffn_dim=16, max_seq_len=40,
                         dropout=POLICIES[kind], pooling=pooling)


def batch_around(lengths, row, seed):
    """A padded batch of random sentences of the given lengths, with
    SENTENCE at ``row`` in place of its neighbour there."""
    rng = np.random.default_rng(seed)
    lengths = list(lengths)
    lengths[row] = len(SENTENCE)
    t = max(lengths)
    mask = (np.arange(t)[None, :] < np.array(lengths)[:, None]).astype(np.float64)
    ids = rng.integers(4, 30, size=mask.shape) * mask.astype(np.int64)
    ids[:, 0] = 1
    ids[row, :len(SENTENCE)] = SENTENCE
    return ids, mask


def pooled_row(config, ids, mask, row, step):
    rng = Rng(11)
    result = encode(ids, mask, init_params(config, Rng(0)), config, mode="train",
                    step=step, rng=rng)
    return result.pooled.data[row], rng._state


@pytest.mark.parametrize("pooling", ["cls_tanh", "mean"])
@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_a_sentence_draws_the_same_masks_whatever_its_neighbours(kind, pooling):
    config = config_with(kind, pooling)
    step = 4 if kind == "curriculum" else 0        # curriculum's rate is 0 at step 0
    narrow = batch_around((4, 0, 6), row=1, seed=1)
    wide = batch_around((30, 0, 3, 17, 2), row=1, seed=2)
    # the neighbours, the padding width and the bucket plan all differ
    assert narrow[1].shape[1] != wide[1].shape[1]
    assert len(pack(narrow[1]).buckets) != len(pack(wide[1]).buckets)
    a, a_state = pooled_row(config, *narrow, row=1, step=step)
    b, b_state = pooled_row(config, *wide, row=1, step=step)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
    assert a_state == b_state
    # and the masks are live: another batch row draws other masks
    moved = batch_around((4, 6, 0), row=2, seed=1)
    c, _ = pooled_row(config, *moved, row=2, step=step)
    assert np.abs(a - c).max() > 1e-6


@pytest.mark.parametrize("pooling", ["cls_tanh", "mean"])
@pytest.mark.parametrize("sequence", [False, True])
def test_every_site_draws_exactly_the_rows_it_computes(monkeypatch, pooling, sequence):
    config = config_with("standard", pooling, num_layers=3)
    ids, mask = batch_around((9, 0, 3, 14), row=1, seed=3)
    views = 2                                         # a stacked [k*B, T] batch
    ids, mask = np.vstack([ids] * views), np.vstack([mask] * views)
    shapes, original = [], Rng.bernoulli

    def recorded(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(Rng, "bernoulli", recorded)
    encode(ids, mask, init_params(config, Rng(0)), config, mode="train", rng=Rng(1),
           sequence=sequence)
    n, d = pack(mask).rows, config.hidden_dim
    pruned = pooling == "cls_tanh" and not sequence
    last = len(ids) if pruned else n
    assert shapes == [(n, d)] * (1 + 2 * (config.num_layers - 1)) + [(last, d)] * 2
