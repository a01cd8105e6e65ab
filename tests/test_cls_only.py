"""encode(..., sequence=False) under CLS pooling: the last block runs only the
[CLS] rows that pooling reads.

The pruned pass must agree with the full pass (sequence=True) on ``pooled``
to 1e-12 relative, on every parameter gradient to within 1e-12 of the
largest gradient entry over the whole model, and on the rng state after the
pass. The gradient bound is model-wide because some true gradients are
exactly zero (every layer's ``attn.bk`` shifts all scores of a query
equally, which softmax ignores), so their per-tensor error is pure rounding.
"""

import numpy as np
import pytest

from simcse_forge import encoder
from simcse_forge.autograd import Tensor
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, encode, init_params, pack
from simcse_forge.rng import Rng

POLICIES = {
    "standard": DropoutPolicy(kind="standard", p=0.2),
    "curriculum": DropoutPolicy(kind="curriculum", p=0.3, total_steps=10),
    "adaptive": DropoutPolicy(kind="adaptive", alpha=1.5, beta=0.5),
}


def config_with(kind="standard", pooling="cls_tanh", **overrides):
    base = dict(vocab_size=30, hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16,
                max_seq_len=64, dropout=POLICIES[kind], pooling=pooling)
    base.update(overrides)
    return EncoderConfig(**base)


def ragged(lengths, t, seed=0):
    rng = np.random.default_rng(seed)
    mask = (np.arange(t)[None, :] < np.array(lengths)[:, None]).astype(np.float64)
    ids = rng.integers(4, 30, size=mask.shape) * mask.astype(np.int64)
    ids[:, 0] = 1
    return ids, mask


def masked_cls():
    ids, mask = ragged((6, 3, 5, 2), 6, seed=3)
    mask[:, 0] = 0.0
    return ids, mask


BATCHES = {
    "unpadded": lambda: ragged((6, 6, 6, 6), 6, seed=1),
    "one_bucket": lambda: ragged((6, 3, 5, 2), 6, seed=2),
    "three_buckets": lambda: ragged((3, 2, 3, 60, 25, 3, 25, 24), 62, seed=4),
    "masked_cls": masked_cls,
    "single": lambda: ragged((5,), 5, seed=5),
    "two_tokens": lambda: ragged((2,), 2, seed=6),
}


def run(config, ids, mask, mode, sequence, step=3):
    """pooled, every parameter's gradient and the rng state after one pass
    and a backward through a fixed random probe of pooled."""
    params = init_params(config, Rng(0))
    rng = Rng(7)
    result = encode(ids, mask, params, config, mode=mode, step=step, rng=rng,
                    sequence=sequence)
    probe = np.random.default_rng(1).normal(size=result.pooled.shape)
    (result.pooled * Tensor(probe)).sum().backward()
    return result, {name: p.grad for name, p in params.items()}, rng._state


def test_batches_cover_the_bucket_layouts():
    layouts = {name: pack(make()[1]) for name, make in BATCHES.items()}
    assert layouts["unpadded"].full
    assert len(layouts["one_bucket"].buckets) == 1 and not layouts["one_bucket"].full
    assert len(layouts["three_buckets"].buckets) >= 3


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind", sorted(POLICIES))
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_cls_only_pass_matches_the_full_pass(batch, kind, mode):
    config = config_with(kind)
    ids, mask = BATCHES[batch]()
    full, full_grads, full_state = run(config, ids, mask, mode, sequence=True)
    cls, cls_grads, cls_state = run(config, ids, mask, mode, sequence=False)
    assert cls.sequence is None
    assert cls_state == full_state
    scale = np.abs(full.pooled.data).max()
    assert np.abs(cls.pooled.data - full.pooled.data).max() <= 1e-12 * scale
    assert {n for n, g in cls_grads.items() if g is None} == \
        {n for n, g in full_grads.items() if g is None}
    graded = {n: g for n, g in full_grads.items() if g is not None}
    scale = max(np.abs(g).max() for g in graded.values())
    for name, g in graded.items():
        assert cls_grads[name].shape == g.shape, name
        assert np.abs(cls_grads[name] - g).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_mean_pooling_ignores_sequence_false(mode):
    config = config_with("adaptive", pooling="mean")
    ids, mask = BATCHES["three_buckets"]()
    full, full_grads, full_state = run(config, ids, mask, mode, sequence=True)
    cls, cls_grads, cls_state = run(config, ids, mask, mode, sequence=False)
    assert cls.sequence is None and cls_state == full_state
    assert cls.pooled.data.tobytes() == full.pooled.data.tobytes()
    for name, g in full_grads.items():
        assert (g is None) == (cls_grads[name] is None), name
        assert g is None or g.tobytes() == cls_grads[name].tobytes(), name


def test_cls_only_last_block_runs_on_one_row_per_sequence(monkeypatch):
    config = config_with("standard")
    ids, mask = BATCHES["three_buckets"]()
    calls, original = [], encoder.multi_head_attention

    def recorded(hidden, packing, *args, **kwargs):
        out = original(hidden, packing, *args, **kwargs)
        calls.append((hidden.shape[0], out.shape[0]))
        return out

    monkeypatch.setattr(encoder, "multi_head_attention", recorded)
    encode(ids, mask, init_params(config, Rng(0)), config, mode="train", rng=Rng(1),
           sequence=False)
    n = pack(mask).rows
    assert calls == [(n, n), (n, len(ids))]


def test_cls_only_dropout_draws_the_full_pass_masks(monkeypatch):
    # each pruned site draws as for all N rows and keeps the [CLS] rows
    config = config_with("standard", num_layers=1)
    ids, mask = BATCHES["one_bucket"]()
    cls_rows = pack(mask).cls_rows
    got, original = [], encoder.apply_dropout

    def recorded(x, *args, **kwargs):
        out = original(x, *args, **kwargs)
        got.append(out.data)
        return out

    monkeypatch.setattr(encoder, "apply_dropout", recorded)
    outs = {}
    for sequence in (True, False):
        got.clear()
        encode(ids, mask, init_params(config, Rng(0)), config, mode="train",
               rng=Rng(1), sequence=sequence)
        outs[sequence] = list(got)
    assert len(outs[True]) == len(outs[False]) == 3
    assert outs[True][0].tobytes() == outs[False][0].tobytes()
    for full, pruned in zip(outs[True][1:], outs[False][1:]):
        assert pruned.shape == (len(ids), config.hidden_dim)
        assert np.array_equal(full[cls_rows] == 0.0, pruned == 0.0)


def test_cls_only_gradient_check():
    # finite differences over every parameter of a 2-layer toy encoder,
    # through the pruned last block and its dropout sites (a fixed seed per
    # evaluation pins the masks)
    cfg = EncoderConfig(vocab_size=9, hidden_dim=4, num_layers=2, num_heads=2,
                        ffn_dim=8, max_seq_len=6,
                        dropout=DropoutPolicy(kind="standard", p=0.2))
    params = init_params(cfg, Rng(13))
    ids = np.array([[1, 4, 5, 2], [1, 6, 2, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
    probe = np.random.default_rng(3).normal(size=(2, 4))

    def loss_value():
        r = encode(ids, mask, params, cfg, mode="train", rng=Rng(5), sequence=False)
        return (r.pooled * Tensor(probe)).sum()

    loss_value().backward()
    h = 1e-5
    worst = 0.0
    for name, p in params.named_parameters():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value().item()
            flat[i] = keep - h
            down = loss_value().item()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-3


def test_embed_runs_the_cls_only_last_block(tmp_path, monkeypatch):
    # embed's default encode prunes the last block: its GELU sees one row per
    # sentence of the batch, and the TSV matches the full pass to rounding
    from simcse_forge import autograd as ag
    from simcse_forge.checkpoint import Checkpoint, save_checkpoint
    from simcse_forge.cli import main
    from simcse_forge.data import Vocab, pad_batch, tokenize

    rng = np.random.default_rng(4)
    words = ["dog", "cat", "moon", "river", "clock", "letter", "harbor", "kettle"]
    lines = [" ".join(rng.choice(words, size=n)) for n in (5, 40, 12, 3, 27, 8, 19)]
    vocab = Vocab.build(lines)
    config = config_with("standard", vocab_size=len(vocab))
    params = init_params(config, Rng(6))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(config=config, params=params,
                               vocab_tokens=vocab.tokens()), ckpt)
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("".join(line + "\n" for line in lines))
    shapes, original = [], ag.gelu

    def recorded(a):
        shapes.append(a.shape)
        return original(a)

    monkeypatch.setattr(ag, "gelu", recorded)
    assert main(["embed", str(ckpt), str(sentences), "--batch-size", "4",
                 "--out", str(tmp_path / "emb")]) == 0
    monkeypatch.undo()
    rows = (tmp_path / "emb" / "embeddings.tsv").read_text().splitlines()[1:]
    written = np.array([row.split("\t")[1:] for row in rows], dtype=np.float64)

    tokens = [tokenize(line, vocab, config.max_seq_len) for line in lines]
    batches = [pad_batch(tokens[i:i + 4]) for i in range(0, len(tokens), 4)]
    expected = []
    for ids, mask in batches:
        expected += [(pack(mask).rows, config.ffn_dim), (len(ids), config.ffn_dim)]
    assert shapes == expected
    full = np.concatenate([encode(ids, mask, params, config, sequence=True).pooled.data
                           for ids, mask in batches])
    assert np.abs(written - full).max() <= 1e-12 * np.abs(full).max()
