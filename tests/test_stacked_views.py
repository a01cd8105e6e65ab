"""One encoder pass per step: a batch's sentence columns, or its SimCSE views,
are stacked into one padded [k*B, T] batch and encoded once.

The oracle is the separate pass per view, each padded to its own longest
sentence. At dropout p=0 the stacked step must give the same loss within
1e-12 relative and every parameter gradient within 1e-12 times the global
gradient norm, absolute. A per-tensor relative bound would not do: some
gradients, such as the attention key bias's, are rounding zeros near 1e-22.
"""

import math

import numpy as np
import pytest

from simcse_forge import training
from simcse_forge.data import (Example, Vocab, examples_from_rows,
                               make_batches, synth_toy_corpus, texts_of_rows,
                               tokenize)
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, encode, init_params
from simcse_forge.objectives import (paraphrase_logit, sts_score,
                                     sup_simcse_loss, unsup_simcse_loss)
from simcse_forge.rng import Rng

WORDS = ("dog cat bird horse sailor river garden market moon train letter "
         "child teacher storm bridge apple stone harbor candle meadow").split()


def _sentence(rng: Rng, n: int) -> str:
    return " ".join(WORDS[int(rng.uniform() * len(WORDS))] for _ in range(n))


def _config(vocab: Vocab, p: float = 0.0) -> EncoderConfig:
    return EncoderConfig(vocab_size=len(vocab), hidden_dim=16, num_layers=2,
                         num_heads=2, ffn_dim=32, max_seq_len=16,
                         dropout=DropoutPolicy(kind="standard", p=p))


def _views(ids, mask, k):
    """The k row blocks of a stacked batch, each cut to its own longest
    sentence, as separate per-view passes pad them."""
    b = len(ids) // k
    for j in range(k):
        rows = slice(j * b, (j + 1) * b)
        t = int(mask[rows].sum(axis=1).max())
        yield ids[rows, :t], mask[rows, :t]


def _separate(ids, mask, k, params, config, mode="train"):
    return [encode(v_ids, v_mask, params, config, mode=mode, rng=Rng(0)).pooled
            for v_ids, v_mask in _views(ids, mask, k)]


def _grads(params, loss) -> dict:
    params.zero_grads()
    loss.backward()
    return {name: t.grad for name, t in params.items()}


def _assert_step_matches(loss, grads, oracle_loss, oracle_grads):
    assert abs(loss - oracle_loss) <= 1e-12 * abs(oracle_loss)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in oracle_grads.values()
                         if g is not None))
    assert norm > 0
    assert grads.keys() == oracle_grads.keys()
    for name, g in grads.items():
        want = oracle_grads[name]
        assert (g is None) == (want is None), name
        if g is not None:
            assert np.max(np.abs(g - want)) <= 1e-12 * norm, name


def _first_step(monkeypatch, loss_name):
    """Record the first optimizer step of a trainer run: the stacked ids and
    mask it encoded, its loss value and the gradients AdamW received."""
    seen = {}
    encode_, adamw, loss_fn = (training.encode, training.adamw_step,
                               getattr(training, loss_name))

    def recording_encode(ids, mask, *args, **kwargs):
        seen.setdefault("batch", (ids, mask))
        return encode_(ids, mask, *args, **kwargs)

    def recording_loss(*args, **kwargs):
        loss = loss_fn(*args, **kwargs)
        seen.setdefault("loss", loss.item())
        return loss

    def recording_adamw(named, *args, **kwargs):
        seen.setdefault("grads", {name: None if t.grad is None else t.grad.copy()
                                  for name, t in named})
        return adamw(named, *args, **kwargs)

    monkeypatch.setattr(training, "encode", recording_encode)
    monkeypatch.setattr(training, loss_name, recording_loss)
    monkeypatch.setattr(training, "adamw_step", recording_adamw)
    return seen


def test_unsup_step_matches_two_separate_encodes(monkeypatch):
    rng = Rng(1)
    sentences = [_sentence(rng, 2 + int(rng.uniform() * 9)) for _ in range(6)]
    vocab = Vocab.build(sentences)
    config = _config(vocab)
    pool = [tokenize(s, vocab, config.max_seq_len) for s in sentences]
    params = init_params(config, Rng(0))
    seen = _first_step(monkeypatch, "unsup_simcse_loss")
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=len(pool), lr=1e-3)
    training.train_unsup_simcse(tc, config, vocab, pool, params)

    ids, mask = seen["batch"]
    assert len(ids) == 2 * len(pool)
    assert np.array_equal(ids[:len(pool)], ids[len(pool):])
    oracle = params.copy()
    loss = unsup_simcse_loss(*_separate(ids, mask, 2, oracle, config), tc.tau)
    _assert_step_matches(seen["loss"], seen["grads"], loss.item(),
                         _grads(oracle, loss))


def test_sup_step_matches_three_separate_encodes_of_different_lengths(monkeypatch):
    rng = Rng(2)
    texts = [(_sentence(rng, 2 + i % 3), _sentence(rng, 6 + i % 5),
              _sentence(rng, 4 + i % 2)) for i in range(5)]
    vocab = Vocab.build([t for row in texts for t in row])
    config = _config(vocab)
    triplets = [Example("triplet", None, row,
                        [tokenize(t, vocab, config.max_seq_len) for t in row])
                for row in texts]
    params = init_params(config, Rng(0))
    seen = _first_step(monkeypatch, "sup_simcse_loss")
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=len(texts), lr=1e-3)
    training.train_sup_simcse(tc, config, vocab, triplets, params)

    ids, mask = seen["batch"]
    lengths = [v_ids.shape[1] for v_ids, _ in _views(ids, mask, 3)]
    assert len(set(lengths)) == 3 and ids.shape[1] == max(lengths)
    oracle = params.copy()
    loss = sup_simcse_loss(*_separate(ids, mask, 3, oracle, config), tc.tau)
    _assert_step_matches(seen["loss"], seen["grads"], loss.item(),
                         _grads(oracle, loss))


def _pairs(task: str):
    rows = synth_toy_corpus(task, 6, Rng(3))
    schema = {"sts": "pair_scored", "paraphrase": "pair_labeled"}[task]
    vocab = Vocab.build(texts_of_rows(rows, schema))
    examples = examples_from_rows(rows, schema, vocab, 16)
    # uneven sides, so the stacked batch pads one side past its own length
    examples[0].tokens[1] = examples[0].tokens[1][:3]
    return vocab, examples


@pytest.mark.parametrize("task", ["sts", "paraphrase"])
def test_task_loss_matches_two_separate_encodes(task):
    vocab, examples = _pairs(task)
    config = _config(vocab)
    (batch,) = make_batches(examples, len(examples))
    tc = training.TrainConfig(task=task)
    params = init_params(config, Rng(0))
    stacked = training.task_loss(task, batch, params, config, tc, rng=Rng(0))
    stacked_grads = _grads(params, stacked)

    oracle = params.copy()
    a, b = _separate(batch.token_ids, batch.mask, 2, oracle, config)
    if task == "sts":
        loss = training.mse_loss(sts_score(a, b, config.sts_head, oracle),
                                 batch.target)
    else:
        loss = training.bce_loss(paraphrase_logit(a, b, oracle, config.para_features),
                                 batch.target.astype(np.float64))
    _assert_step_matches(stacked.item(), stacked_grads, loss.item(),
                         _grads(oracle, loss))


@pytest.mark.parametrize("task", ["sts", "paraphrase"])
def test_pair_predictions_match_separate_passes(task):
    vocab, examples = _pairs(task)
    config = _config(vocab, p=0.1)
    params = init_params(config, Rng(0))
    (batch,) = make_batches(examples, len(examples))
    got = training.predict(task, batch, params, config)
    a, b = _separate(batch.token_ids, batch.mask, 2, params, config, mode="eval")
    if task == "sts":
        want = sts_score(a, b, config.sts_head, params).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    else:
        logit = paraphrase_logit(a, b, params, config.para_features).data
        assert np.min(np.abs(logit)) > 1e-9         # no sign decided by rounding
        assert np.array_equal(got, (logit > 0.0).astype(np.int64))


# -- one encode per optimizer step ---------------------------------------------------

def _count(monkeypatch):
    calls = {"train_encodes": 0, "encodes": 0, "steps": 0}
    encode_, adamw = training.encode, training.adamw_step

    def counting_encode(*args, **kwargs):
        calls["encodes"] += 1
        calls["train_encodes"] += kwargs.get("mode") == "train"
        return encode_(*args, **kwargs)

    def counting_adamw(*args, **kwargs):
        calls["steps"] += 1
        return adamw(*args, **kwargs)

    monkeypatch.setattr(training, "encode", counting_encode)
    monkeypatch.setattr(training, "adamw_step", counting_adamw)
    return calls


def test_every_trainer_encodes_once_per_optimizer_step(monkeypatch):
    data = {}
    texts = []
    for offset, (task, schema) in enumerate([("sst", "classification"),
                                             ("paraphrase", "pair_labeled"),
                                             ("sts", "pair_scored"),
                                             ("nli", "triplet")]):
        rows = synth_toy_corpus(task, 7, Rng(10 + offset))
        data[task] = (rows, schema)
        texts += texts_of_rows(rows, schema)
    vocab = Vocab.build(texts)
    ex = {task: examples_from_rows(rows, schema, vocab, 16)
          for task, (rows, schema) in data.items()}
    config = _config(vocab, p=0.1)
    params = init_params(config, Rng(0))
    pool = training.sentence_pool(ex["sts"])
    tc = {task: training.TrainConfig(task=task, epochs=2, batch_size=3)
          for task in ("sst", "paraphrase", "sts")}
    runs = [lambda t=t: training.train_single_task(tc[t], config, vocab, ex[t], [])
            for t in tc]
    runs += [
        lambda: training.train_multitask(
            tc["sst"], config, vocab, {t: (ex[t], []) for t in tc}),
        lambda: training.train_unsup_simcse(tc["sts"], config, vocab, pool, params),
        lambda: training.train_sup_simcse(tc["sts"], config, vocab, ex["nli"], params),
        lambda: training.run_two_tier(
            training.TwoTierConfig(stage1=tc["sts"], stage2=tc["sts"],
                                   stage3=tc["sts"]),
            config, vocab, ex["sts"], ex["sts"], ex["nli"]),
    ]
    calls = _count(monkeypatch)
    for run in runs:
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls["steps"] > 0
        assert calls["train_encodes"] == calls["steps"]


def test_alignment_encodes_each_chunk_once(monkeypatch):
    rng = Rng(4)
    sentences = [_sentence(rng, 3 + i % 4) for i in range(40)]
    vocab = Vocab.build(sentences)
    config = _config(vocab, p=0.1)
    pool = [tokenize(s, vocab, 16) for s in sentences]
    calls = _count(monkeypatch)
    training.dropout_alignment(init_params(config, Rng(0)), config, pool, seed=1)
    assert calls["encodes"] == math.ceil(len(pool) / training._ALIGNMENT_BATCH)
