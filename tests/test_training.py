import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from simcse_forge import optim, training
from simcse_forge.checkpoint import params_hash, save_checkpoint
from simcse_forge.data import (SYNTH_SCHEMAS, DataError, Vocab,
                               examples_from_rows, synth_toy_corpus,
                               texts_of_rows, tokenize)
from simcse_forge.dropout import DropoutPolicy, curriculum_rate
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.rng import Rng
from simcse_forge.training import (TrainConfig, TwoTierConfig,
                                   dropout_alignment, evaluate_task,
                                   reinit_task_head, run_two_tier,
                                   train_multitask, train_single_task,
                                   train_sup_simcse, train_unsup_simcse,
                                   transfer_finetune)

MAX_LEN = 12


def corpus(kind: str, size: int, seed: int, vocab: Vocab | None = None):
    rows = synth_toy_corpus(kind, size, Rng(seed))
    schema = SYNTH_SCHEMAS[kind]
    if vocab is None:
        vocab = Vocab.build(texts_of_rows(rows, schema))
    return examples_from_rows(rows, schema, vocab, max_len=MAX_LEN), vocab


def toy_encoder_config(vocab: Vocab, p: float = 0.0, **kw) -> EncoderConfig:
    base = dict(vocab_size=len(vocab), hidden_dim=8, num_layers=1, num_heads=2,
                ffn_dim=16, max_seq_len=MAX_LEN, pooling="mean",
                dropout=DropoutPolicy(kind="standard", p=p))
    base.update(kw)
    return EncoderConfig(**base)


# -- config ------------------------------------------------------------------------

def test_train_config_validation():
    TrainConfig(task="sts", epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(task="nli")
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(sst_loss="hinge")
    with pytest.raises(ValueError):
        TrainConfig(tau=0.0)
    with pytest.raises(ValueError):
        TrainConfig(dropout_p=1.0)


# -- single task -------------------------------------------------------------------

def test_zero_epochs_returns_initial_params():
    train, vocab = corpus("sst", 12, seed=0)
    config = toy_encoder_config(vocab)
    tc = TrainConfig(task="sst", epochs=0, seed=5)
    ck = train_single_task(tc, config, vocab, train, [])
    assert ck.history == []
    assert params_hash(ck.params) == params_hash(init_params(config, Rng(5)))


def test_single_task_is_deterministic():
    train, vocab = corpus("sst", 16, seed=1)
    dev, _ = corpus("sst", 8, seed=2, vocab=vocab)
    config = toy_encoder_config(vocab, p=0.2)
    tc = TrainConfig(task="sst", epochs=2, batch_size=4, lr=1e-3, seed=9)
    a = train_single_task(tc, config, vocab, train, dev)
    b = train_single_task(tc, config, vocab, train, dev)
    assert params_hash(a.params) == params_hash(b.params)
    assert a.history == b.history
    c = train_single_task(TrainConfig(task="sst", epochs=2, batch_size=4,
                                      lr=1e-3, seed=10), config, vocab,
                          train, dev)
    assert params_hash(c.params) != params_hash(a.params)


def test_convex_head_loss_decreases_with_frozen_encoder():
    train, vocab = corpus("sst", 24, seed=3)
    config = toy_encoder_config(vocab, p=0.0)
    tc = TrainConfig(task="sst", epochs=8, batch_size=24, lr=0.05, seed=0)
    params = init_params(config, Rng(0))
    for name, t in params.named_parameters():
        if not name.startswith("heads."):
            t.requires_grad = False
    ck = train_single_task(tc, config, vocab, train, [], params=params)
    losses = [h["train_loss"] for h in ck.history]
    assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.95 * losses[0]


def test_checkpoint_params_match_best_dev_epoch():
    train, vocab = corpus("sst", 20, seed=4)
    dev, _ = corpus("sst", 10, seed=5, vocab=vocab)
    config = toy_encoder_config(vocab)
    tc = TrainConfig(task="sst", epochs=4, batch_size=4, lr=0.05, seed=1)
    ck = train_single_task(tc, config, vocab, train, dev)
    recorded = [h["dev_metric"] for h in ck.history]
    name, value, n = evaluate_task("sst", ck.params, config, dev, tc)
    assert name == "accuracy" and n == len(dev)
    assert value == pytest.approx(max(recorded), abs=1e-12)


def test_input_params_not_mutated():
    train, vocab = corpus("sst", 8, seed=6)
    config = toy_encoder_config(vocab)
    params = init_params(config, Rng(2))
    before = params_hash(params)
    train_single_task(TrainConfig(task="sst", epochs=1, lr=1e-3), config,
                      vocab, train, [], params=params)
    assert params_hash(params) == before


def test_eval_every_adds_step_entries():
    train, vocab = corpus("sst", 8, seed=7)
    dev, _ = corpus("sst", 4, seed=8, vocab=vocab)
    config = toy_encoder_config(vocab)
    tc = TrainConfig(task="sst", epochs=1, batch_size=4, lr=1e-3, eval_every=1)
    ck = train_single_task(tc, config, vocab, train, dev)
    step_entries = [h for h in ck.history if "step" in h]
    assert len(step_entries) == 2          # 8 examples / batch 4
    assert all("dev_metric" in h for h in step_entries)


def test_task_dataset_variant_mismatch():
    sts, vocab = corpus("sts", 6, seed=9)
    sst, _ = corpus("sst", 6, seed=9, vocab=vocab)
    config = toy_encoder_config(vocab)
    with pytest.raises(ValueError, match="needs classification"):
        train_single_task(TrainConfig(task="sst", epochs=1), config, vocab,
                          sts, [])
    params = init_params(config, Rng(0))
    with pytest.raises(ValueError, match="needs pair_scored"):
        evaluate_task("sts", params, config, sst, TrainConfig(task="sts"))
    with pytest.raises(ValueError, match="empty"):
        evaluate_task("sts", params, config, [], TrainConfig(task="sts"))


def test_sts_and_paraphrase_losses_run():
    for kind, task in (("sts", "sts"), ("paraphrase", "paraphrase")):
        train, vocab = corpus(kind, 10, seed=10)
        config = toy_encoder_config(vocab)
        tc = TrainConfig(task=task, epochs=1, batch_size=5, lr=1e-3)
        ck = train_single_task(tc, config, vocab, train, train)
        assert math.isfinite(ck.history[-1]["train_loss"])
        name = "pearson" if task == "sts" else "accuracy"
        assert ck.history[-1][f"{task}_{name}"] == ck.history[-1]["dev_metric"]


# -- multitask ----------------------------------------------------------------------

def multitask_data(seed: int):
    sst_rows = synth_toy_corpus("sst", 12, Rng(seed))
    para_rows = synth_toy_corpus("paraphrase", 8, Rng(seed + 1))
    sts_rows = synth_toy_corpus("sts", 10, Rng(seed + 2))
    texts = (texts_of_rows(sst_rows, "classification")
             + texts_of_rows(para_rows, "pair_labeled")
             + texts_of_rows(sts_rows, "pair_scored"))
    vocab = Vocab.build(texts)
    sst = examples_from_rows(sst_rows, "classification", vocab, MAX_LEN)
    para = examples_from_rows(para_rows, "pair_labeled", vocab, MAX_LEN)
    sts = examples_from_rows(sts_rows, "pair_scored", vocab, MAX_LEN)
    return vocab, {"sst": (sst, sst[:4]), "paraphrase": (para, para[:4]),
                   "sts": (sts, sts[:4])}


def test_multitask_round_robin_trains_all_heads():
    vocab, datasets = multitask_data(20)
    config = toy_encoder_config(vocab, p=0.1)
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=3)
    ck = train_multitask(tc, config, vocab, datasets)
    assert len(ck.history) == 2
    for entry in ck.history:
        assert {"sst_accuracy", "paraphrase_accuracy", "sts_pearson",
                "dev_metric"} <= set(entry)
        assert entry["dev_metric"] == pytest.approx(
            np.mean([entry["sst_accuracy"], entry["paraphrase_accuracy"],
                     entry["sts_pearson"]]), abs=1e-12)


def test_multitask_round_robin_builds_the_optimizer_layout_once_per_head(monkeypatch):
    builds = []
    flat_buffers = optim._FlatBuffers

    def counted(members, state):
        builds.append(len(members))
        return flat_buffers(members, state)

    monkeypatch.setattr(optim, "_FlatBuffers", counted)
    vocab, datasets = multitask_data(20)
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=3)
    ck = train_multitask(tc, toy_encoder_config(vocab, p=0.1), vocab, datasets)
    # 18 steps; a layout is built when a head first has a gradient: sst's,
    # then paraphrase's (the cos_sigmoid STS head has no parameters)
    assert ck.history[-1]["epoch"] == 1
    assert len(builds) == 2 and builds[0] < builds[1]


def test_multitask_eval_every_adds_step_entries():
    vocab, datasets = multitask_data(22)
    config = toy_encoder_config(vocab)
    tc = TrainConfig(epochs=1, batch_size=4, lr=1e-3, eval_every=1)
    ck = train_multitask(tc, config, vocab, datasets)
    # 12 sst examples / batch 4 is the longest stream: 3 rounds of 3 tasks
    assert len([h for h in ck.history if "step" in h]) == 9
    assert len(ck.history) == 10


def test_multitask_missing_dataset_errors():
    vocab, datasets = multitask_data(21)
    config = toy_encoder_config(vocab)
    del datasets["sts"]
    with pytest.raises(ValueError, match="missing dataset"):
        train_multitask(TrainConfig(epochs=1), config, vocab, datasets)
    with pytest.raises(ValueError, match="at least one task"):
        train_multitask(TrainConfig(epochs=1), config, vocab, datasets,
                        tasks=())


def test_multitask_empty_train_set_names_the_task():
    # beside non-empty streams, an empty one would make the round-robin's
    # `i % len(stream)` divide by zero
    vocab, datasets = multitask_data(23)
    config = toy_encoder_config(vocab)
    datasets["sst"] = ([], datasets["sst"][1])
    with pytest.raises(DataError, match="^task 'sst': train set is empty"):
        train_multitask(TrainConfig(epochs=1, batch_size=4), config, vocab, datasets)


def test_every_trainer_rejects_an_empty_train_set():
    # with no examples a trainer would take no step and return its
    # starting weights as if trained
    from simcse_forge.checkpoint import Checkpoint
    sts, vocab = corpus("sts", 4, seed=24)
    config = toy_encoder_config(vocab)
    params = init_params(config, Rng(0))
    tc = TrainConfig(task="sts", epochs=1, batch_size=2)
    ckpt = Checkpoint(config=config, params=params, stage="baseline",
                      history=[], vocab_tokens=vocab.tokens())
    with pytest.raises(DataError, match="task 'sts': train set is empty"):
        train_single_task(tc, config, vocab, [], sts)
    with pytest.raises(DataError, match="task 'sts': train set is empty"):
        transfer_finetune(ckpt, tc, [], sts)
    with pytest.raises(DataError, match="^unsup_simcse: train set is empty"):
        train_unsup_simcse(tc, config, vocab, [], params)
    with pytest.raises(DataError, match="^sup_simcse: train set is empty"):
        train_sup_simcse(tc, config, vocab, [], params)


def test_multitask_single_stream_degenerates_to_single_task():
    vocab, datasets = multitask_data(22)
    config = toy_encoder_config(vocab, p=0.15)
    tc = TrainConfig(task="sst", epochs=2, batch_size=4, lr=1e-3, seed=7)
    single = train_single_task(tc, config, vocab, *datasets["sst"])
    multi = train_multitask(tc, config, vocab, datasets, tasks=("sst",))
    assert params_hash(single.params) == params_hash(multi.params)
    single_losses = [h["train_loss"] for h in single.history]
    multi_losses = [h["train_loss"] for h in multi.history]
    assert single_losses == multi_losses
    assert single.history == multi.history


def test_multitask_skips_a_task_with_no_dev_examples():
    vocab, datasets = multitask_data(25)
    config = toy_encoder_config(vocab)
    datasets["sts"] = (datasets["sts"][0], [])
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-3, eval_every=2)
    ck = train_multitask(tc, config, vocab, datasets)
    # 3 rounds of 3 tasks per epoch: 18 steps, a row every 2, plus 2 epochs
    assert len([h for h in ck.history if "step" in h]) == 9
    assert len(ck.history) == 11
    for entry in ck.history:
        assert "sts_pearson" not in entry
        assert entry["dev_metric"] == pytest.approx(
            np.mean([entry["sst_accuracy"], entry["paraphrase_accuracy"]]),
            abs=1e-12)


def test_task_training_with_no_dev_examples_writes_no_dev_rows():
    vocab, datasets = multitask_data(26)
    config = toy_encoder_config(vocab)
    no_dev = {t: (train, []) for t, (train, _) in datasets.items()}
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-3, eval_every=1)
    ck = train_multitask(tc, config, vocab, no_dev)
    assert [set(h) for h in ck.history] == [
        {"stage", "task", "epoch", "train_loss"}] * 2


def test_task_training_rejects_a_constant_gold_sts_dev_split_before_any_step(
        monkeypatch):
    train, vocab = corpus("sts", 8, seed=27)
    dev = [replace(e, target=2.5) for e in corpus("sts", 3, seed=28, vocab=vocab)[0]]

    def no_step(*args, **kwargs):
        raise AssertionError("an optimizer step ran before the dev split was checked")

    monkeypatch.setattr(training, "adamw_step", no_step)
    tc = TrainConfig(task="sts", epochs=1, batch_size=4)
    with pytest.raises(DataError, match="^sts dev split: every gold similarity is 2.5"):
        train_single_task(tc, toy_encoder_config(vocab), vocab, train, dev)
    with pytest.raises(DataError, match="^sts dev split: too small a dataset"):
        train_single_task(tc, toy_encoder_config(vocab), vocab, train, dev[:1])


# -- contrastive stages ------------------------------------------------------------------

def test_sentence_pool_keeps_one_of_the_sentences_that_tokenize_alike():
    rows = [("a", "The cat sat", "a dog ran", "1.0"),
            ("b", "the  cat sat", "the cat sat", "2.0")]
    vocab = Vocab.build(texts_of_rows(rows, "pair_scored"))
    examples = examples_from_rows(rows, "pair_scored", vocab, MAX_LEN)
    assert training.sentence_pool(examples) == [
        tokenize("the cat sat", vocab, MAX_LEN), tokenize("a dog ran", vocab, MAX_LEN)]
    # under a vocabulary that knows none of the words, both read [CLS] [UNK]x3 [SEP]
    other = Vocab.build(["moon harbor"])
    examples = examples_from_rows(rows, "pair_scored", other, MAX_LEN)
    assert len(training.sentence_pool(examples)) == 1


def sentence_pool(n: int, seed: int):
    rows = synth_toy_corpus("sts", n, Rng(seed))
    vocab = Vocab.build(texts_of_rows(rows, "pair_scored"))
    pool = [tokenize(t, vocab, MAX_LEN)
            for t in dict.fromkeys(texts_of_rows(rows, "pair_scored"))]
    return pool, vocab


def test_unsup_simcse_requires_params():
    pool, vocab = sentence_pool(4, seed=30)
    config = toy_encoder_config(vocab)
    with pytest.raises(ValueError, match="params"):
        train_unsup_simcse(TrainConfig(epochs=1), config, vocab, pool, None)


def test_unsup_simcse_zero_dropout_gives_log_n():
    # with p=0 the two views coincide, so on a batch of one repeated sentence
    # every similarity saturates and the loss is exactly log(batch size)
    pool, vocab = sentence_pool(4, seed=31)
    config = toy_encoder_config(vocab, p=0.0)
    params = init_params(config, Rng(1))
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-4, seed=2)
    ck = train_unsup_simcse(tc, config, vocab, pool[:1] * 8, params)
    for entry in ck.history:
        assert entry["train_loss"] == pytest.approx(math.log(4), abs=1e-9)
    assert ck.stage == "unsup_simcse"


def test_unsup_simcse_skips_singleton_batches(caplog):
    pool, vocab = sentence_pool(4, seed=32)
    config = toy_encoder_config(vocab, p=0.1)
    params = init_params(config, Rng(1))
    tc = TrainConfig(epochs=1, batch_size=2, lr=1e-4, seed=2)
    with caplog.at_level(logging.WARNING, logger="simcse_forge.training"):
        train_unsup_simcse(tc, config, vocab, pool[:5], params)
    assert any("size-1" in r.message for r in caplog.records)


def _identical_view_warnings(caplog, policy: DropoutPolicy) -> list[str]:
    pool, vocab = sentence_pool(8, seed=34)
    config = toy_encoder_config(vocab, dropout=policy)
    params = init_params(config, Rng(1))
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-4, seed=2)
    with caplog.at_level(logging.WARNING, logger="simcse_forge.training"):
        train_unsup_simcse(tc, config, vocab, pool, params)
    return [r.message for r in caplog.records if "identical" in r.message]


def test_unsup_simcse_warns_once_when_standard_dropout_is_off(caplog):
    messages = _identical_view_warnings(caplog, DropoutPolicy(kind="standard", p=0.0))
    assert len(messages) == 1
    assert "step 0" in messages[0] and "standard" in messages[0]


def test_unsup_simcse_warns_once_at_curriculum_step_zero(caplog):
    # curriculum_rate(0) == 0: the first step's views coincide, later ones differ
    policy = DropoutPolicy(kind="curriculum", p=0.2, total_steps=10)
    messages = _identical_view_warnings(caplog, policy)
    assert len(messages) == 1
    assert "step 0" in messages[0] and "curriculum" in messages[0]


def test_unsup_simcse_positive_dropout_does_not_warn(caplog):
    for policy in (DropoutPolicy(kind="standard", p=0.1), DropoutPolicy(kind="adaptive")):
        assert _identical_view_warnings(caplog, policy) == []


def test_unsup_simcse_warns_once_when_adaptive_dropout_keeps_every_unit(caplog):
    # sigmoid(40) rounds to 1.0, so every mask keeps every unit: the warning
    # comes from the two views themselves, not from the policy
    messages = _identical_view_warnings(caplog, DropoutPolicy(kind="adaptive", beta=40.0))
    assert len(messages) == 1
    assert "step 0" in messages[0] and "adaptive" in messages[0]


def test_unsup_simcse_improves_alignment():
    # the trained pooler is what soaks up the dropout noise, so this
    # property belongs to cls_tanh pooling (mean pooling of a random
    # encoder starts near-collinear and mostly gains uniformity instead)
    pool, vocab = sentence_pool(20, seed=33)
    config = toy_encoder_config(vocab, p=0.1, pooling="cls_tanh")
    params = init_params(config, Rng(4))
    before = dropout_alignment(params, config, pool, seed=99)
    tc = TrainConfig(epochs=2, batch_size=8, lr=3e-3, seed=5)
    ck = train_unsup_simcse(tc, config, vocab, pool, params,
                            dev_token_lists=pool)
    after = dropout_alignment(ck.params, config, pool, seed=99)
    assert after > before
    assert ck.history[-1]["dev_alignment"] == pytest.approx(
        dropout_alignment(ck.params, config, pool, seed=tc.seed), abs=1e-12)


def test_dropout_alignment_is_one_without_dropout():
    pool, vocab = sentence_pool(3, seed=34)
    config = toy_encoder_config(vocab, p=0.0)
    params = init_params(config, Rng(0))
    assert dropout_alignment(params, config, pool, seed=0) == pytest.approx(
        1.0, abs=1e-12)


def test_dropout_alignment_reads_curriculum_dropout_at_the_end_of_its_schedule():
    # the views are drawn at step total_steps, not at step 0 where a
    # curriculum rate is 0 and the two views would coincide
    pool, vocab = sentence_pool(6, seed=35)
    policy = DropoutPolicy(kind="curriculum", p=0.2, gamma=5.0, total_steps=40)
    config = toy_encoder_config(vocab, dropout=policy)
    params = init_params(config, Rng(0))
    value = dropout_alignment(params, config, pool, seed=1)
    assert value < 1.0
    at_end = toy_encoder_config(vocab, p=curriculum_rate(40, policy))
    assert value == dropout_alignment(params, at_end, pool, seed=1)


def _sup_identical_view_warnings(caplog, anchor_is_positive: bool) -> list[str]:
    rows = synth_toy_corpus("nli", 8, Rng(44))
    if anchor_is_positive:
        rows = [(a, a, c) for a, _, c in rows]
    vocab = Vocab.build(texts_of_rows(rows, "triplet"))
    triplets = examples_from_rows(rows, "triplet", vocab, MAX_LEN)
    config = toy_encoder_config(vocab, p=0.0)
    tc = TrainConfig(epochs=2, batch_size=4, lr=1e-4, seed=2)
    with caplog.at_level(logging.WARNING, logger="simcse_forge.training"):
        train_sup_simcse(tc, config, vocab, triplets, init_params(config, Rng(1)))
    return [r.message for r in caplog.records if "identical" in r.message]


def test_sup_simcse_warns_once_when_anchors_equal_their_positives(caplog):
    messages = _sup_identical_view_warnings(caplog, anchor_is_positive=True)
    assert len(messages) == 1
    assert "sup_simcse step 0" in messages[0] and "standard" in messages[0]


def test_sup_simcse_distinct_triplets_do_not_warn_at_zero_dropout(caplog):
    assert _sup_identical_view_warnings(caplog, anchor_is_positive=False) == []


def test_sup_simcse_trains_and_allows_singletons():
    rows = synth_toy_corpus("nli", 9, Rng(40))
    vocab = Vocab.build(texts_of_rows(rows, "triplet"))
    triplets = examples_from_rows(rows, "triplet", vocab, MAX_LEN)
    config = toy_encoder_config(vocab, p=0.1)
    params = init_params(config, Rng(3))
    tc = TrainConfig(epochs=3, batch_size=4, lr=3e-3, seed=6)
    ck = train_sup_simcse(tc, config, vocab, triplets, params)
    assert ck.stage == "sup_simcse"
    losses = [h["train_loss"] for h in ck.history]
    assert all(math.isfinite(v) for v in losses)
    assert losses[-1] < losses[0]
    # 9 examples, batch 4 -> final batch holds a single triplet; no skips
    ck1 = train_sup_simcse(TrainConfig(epochs=1, batch_size=1, lr=1e-4),
                           config, vocab, triplets[:1], params)
    assert math.isfinite(ck1.history[0]["train_loss"])


def _nan_trainers():
    """Each trainer, run on params that hold one NaN weight."""
    sst_rows = synth_toy_corpus("sst", 8, Rng(42))
    nli_rows = synth_toy_corpus("nli", 4, Rng(43))
    texts = texts_of_rows(sst_rows, "classification")
    vocab = Vocab.build(texts + texts_of_rows(nli_rows, "triplet"))
    sst = examples_from_rows(sst_rows, "classification", vocab, MAX_LEN)
    triplets = examples_from_rows(nli_rows, "triplet", vocab, MAX_LEN)
    pool = [tokenize(t, vocab, MAX_LEN) for t in texts]
    config = toy_encoder_config(vocab, p=0.1)
    params = init_params(config, Rng(0))
    params["layers.0.attn.wq"].data[0, 0] = np.nan
    tc = TrainConfig(task="sst", epochs=1, batch_size=4, lr=1e-3)
    return {
        "baseline": lambda: train_single_task(tc, config, vocab, sst, sst,
                                              params=params),
        "multitask": lambda: train_multitask(tc, config, vocab, {"sst": (sst, sst)},
                                             tasks=("sst",), params=params),
        "unsup_simcse": lambda: train_unsup_simcse(tc, config, vocab, pool, params),
        "sup_simcse": lambda: train_sup_simcse(tc, config, vocab, triplets, params),
    }


@pytest.mark.parametrize("trainer", ["baseline", "multitask", "unsup_simcse",
                                     "sup_simcse"])
def test_non_finite_loss_stops_every_trainer(trainer):
    stage = "baseline" if trainer == "multitask" else trainer
    with pytest.raises(ValueError, match=f"{stage} stage: non-finite loss at step 0"):
        _nan_trainers()[trainer]()


def test_non_finite_gradient_norm_stops_training(monkeypatch):
    from simcse_forge import training

    sst, vocab = corpus("sst", 8, seed=45)
    config = toy_encoder_config(vocab)
    real_step = training.adamw_step

    def nan_norm_on_second_step(named, state, opt):
        norm = real_step(named, state, opt)
        return float("nan") if state.step == 2 else norm

    monkeypatch.setattr(training, "adamw_step", nan_norm_on_second_step)
    tc = TrainConfig(task="sst", epochs=1, batch_size=4, lr=1e-3)
    with pytest.raises(ValueError, match="non-finite gradient norm at step 1"):
        train_single_task(tc, config, vocab, sst, [])


def test_sup_simcse_rejects_wrong_variant():
    sts, vocab = corpus("sts", 4, seed=41)
    config = toy_encoder_config(vocab)
    params = init_params(config, Rng(0))
    with pytest.raises(ValueError, match="pair_scored"):
        train_sup_simcse(TrainConfig(epochs=1), config, vocab, sts, params)


# -- two-tier ---------------------------------------------------------------------------

def two_tier_data(seed: int):
    sts_rows = synth_toy_corpus("sts", 16, Rng(seed))
    nli_rows = synth_toy_corpus("nli", 10, Rng(seed + 1))
    vocab = Vocab.build(texts_of_rows(sts_rows, "pair_scored")
                        + texts_of_rows(nli_rows, "triplet"))
    sts = examples_from_rows(sts_rows, "pair_scored", vocab, MAX_LEN)
    nli = examples_from_rows(nli_rows, "triplet", vocab, MAX_LEN)
    return vocab, sts[:12], sts[12:], nli


def tiny_two_tier_config():
    return TwoTierConfig(
        stage1=TrainConfig(task="sts", epochs=1, batch_size=4, lr=1e-3, seed=0),
        stage2=TrainConfig(task="sts", epochs=1, batch_size=4, lr=1e-3,
                           dropout_p=0.1, seed=0),
        stage3=TrainConfig(task="sts", epochs=1, batch_size=4, lr=1e-3,
                           dropout_p=0.1, seed=0))


def test_two_tier_stage_wiring_and_reports():
    vocab, sts_train, sts_dev, nli = two_tier_data(50)
    config = toy_encoder_config(vocab, p=0.2)
    ck, reports = run_two_tier(tiny_two_tier_config(), config, vocab,
                               sts_train, sts_dev, nli)
    assert ck.stage == "two_tier"
    assert [r.stage for r in reports] == ["baseline", "unsup_simcse",
                                          "sup_simcse"]
    assert all(r.task == "sts" and r.metric == "pearson" for r in reports)
    assert all(r.n_examples == len(sts_dev) for r in reports)
    summaries = [h for h in ck.history if h.get("summary")]
    assert len(summaries) == 3
    # each stage starts from the weights the previous stage ended with
    assert summaries[1]["init_hash"] == summaries[0]["final_hash"]
    assert summaries[2]["init_hash"] == summaries[1]["final_hash"]
    assert summaries[2]["final_hash"] == params_hash(ck.params)


def test_two_tier_unsup_pool_is_the_token_lists_stage_one_trained_on(monkeypatch):
    # the examples are tokenized at 6 tokens, shorter than the encoder's 12,
    # and stage 2 trains on those token lists, not on a re-tokenization
    sts_rows = synth_toy_corpus("sts", 8, Rng(53))
    vocab = Vocab.build(texts_of_rows(sts_rows, "pair_scored"))
    sts = examples_from_rows(sts_rows, "pair_scored", vocab, max_len=6)
    pools = []

    class Captured(Exception):
        pass

    def capture(tc, config, vocab, pool, params):
        pools.append(pool)
        raise Captured

    monkeypatch.setattr(training, "train_unsup_simcse", capture)
    with pytest.raises(Captured):
        run_two_tier(tiny_two_tier_config(), toy_encoder_config(vocab), vocab,
                     sts[:6], sts[6:], [])
    distinct = dict.fromkeys(tuple(ts) for ex in sts[:6] for ts in ex.tokens)
    assert pools == [[list(ts) for ts in distinct]]
    assert all(len(ts) <= 6 for ts in pools[0])


def test_two_tier_skip_unsup_and_extra_finetune():
    vocab, sts_train, sts_dev, nli = two_tier_data(51)
    config = toy_encoder_config(vocab, p=0.2)
    tt = tiny_two_tier_config()
    tt.skip_unsup = True
    _, reports = run_two_tier(tt, config, vocab, sts_train, sts_dev, nli)
    assert [r.stage for r in reports] == ["baseline", "sup_simcse"]
    tt = tiny_two_tier_config()
    tt.extra_sts_finetune = True
    ck, reports = run_two_tier(tt, config, vocab, sts_train, sts_dev, nli)
    assert [r.stage for r in reports] == ["baseline", "unsup_simcse",
                                          "sup_simcse", "two_tier"]
    assert ck.stage == "two_tier"


def test_two_tier_is_reproducible(tmp_path):
    vocab, sts_train, sts_dev, nli = two_tier_data(52)
    config = toy_encoder_config(vocab, p=0.2)
    ck_a, rep_a = run_two_tier(tiny_two_tier_config(), config, vocab,
                               sts_train, sts_dev, nli)
    ck_b, rep_b = run_two_tier(tiny_two_tier_config(), config, vocab,
                               sts_train, sts_dev, nli)
    assert params_hash(ck_a.params) == params_hash(ck_b.params)
    assert rep_a == rep_b
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ck_a, pa)
    save_checkpoint(ck_b, pb)
    assert pa.read_bytes() == pb.read_bytes()


# -- transfer --------------------------------------------------------------------------

def test_reinit_task_head_touches_only_that_head():
    _, vocab = corpus("sst", 4, seed=60)
    config = toy_encoder_config(vocab)
    params = init_params(config, Rng(0))
    before = {name: t.data.copy() for name, t in params.named_parameters()}
    reinit_task_head(params, "sst", config, Rng(123))
    for name, t in params.named_parameters():
        if name in ("heads.sst.weight",):
            assert not np.array_equal(t.data, before[name])
        else:
            assert np.array_equal(t.data, before[name]), name
    with pytest.raises(ValueError):
        reinit_task_head(params, "nli", config, Rng(0))


def test_transfer_equals_manual_reinit_plus_finetune():
    from simcse_forge.checkpoint import Checkpoint

    train, vocab = corpus("sst", 12, seed=61)
    dev, _ = corpus("sst", 6, seed=62, vocab=vocab)
    config = toy_encoder_config(vocab, p=0.1)
    source = init_params(config, Rng(11))
    ckpt = Checkpoint(config=config, params=source, stage="baseline",
                      vocab_tokens=vocab.tokens())
    tc = TrainConfig(task="sst", epochs=2, batch_size=4, lr=1e-3, seed=13)

    transferred = transfer_finetune(ckpt, tc, train, dev)

    manual = source.copy()
    reinit_task_head(manual, "sst", config, Rng(13))
    reference = train_single_task(tc, config, vocab, train, dev,
                                  params=manual, stage="transfer")

    assert transferred.stage == "transfer"
    assert params_hash(transferred.params) == params_hash(reference.params)
    assert transferred.history == reference.history
