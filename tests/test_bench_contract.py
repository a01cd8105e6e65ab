"""What the benchmark in perfbench/ relies on from the package.

perfbench patches functions at the names the trainers resolve
(``training.adamw_step``, ``training.encode``, ...) and counts optimizer
steps through ``training.adamw_step``. A rename or a loop that stops calling
through those names would make a layer vanish from the trace or break the
step-count check; these tests catch that here instead.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

from simcse_forge import training
from simcse_forge.data import Vocab, tokenize
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.rng import Rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

SENTENCES = ["the dog ran home", "a cat sat on the mat", "birds sing",
             "the river is cold today", "moon over the harbor", "old clock",
             "a red kettle boils", "the teacher found a letter"]
BATCH = 3


def _tiny_config(vocab):
    return EncoderConfig(vocab_size=len(vocab), hidden_dim=8, num_layers=1,
                         num_heads=2, ffn_dim=16, max_seq_len=12,
                         dropout=DropoutPolicy(kind="standard", p=0.1))


def _tiny_unsup_run():
    vocab = Vocab.build(SENTENCES)
    config = _tiny_config(vocab)
    pool = [tokenize(s, vocab, config.max_seq_len) for s in SENTENCES]
    tc = training.TrainConfig(task="sts", epochs=1, batch_size=BATCH, lr=1e-3)
    return training.train_unsup_simcse(tc, config, vocab, pool,
                                       init_params(config, Rng(0)))


def test_every_traced_target_exists():
    with tracing.instrument(tracing.Tracer()) as missing:
        assert missing == []


def test_traced_unsup_run_reaches_every_training_layer():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _tiny_unsup_run()
    names = [span[0] for span in tracer.spans]
    assert {"training", "data.batch", "encoder.encode", "encoder.attention",
            "autograd.softmax", "autograd.matmul", "autograd.gelu",
            "autograd.layer_norm", "dropout.site", "rng.mask",
            "objectives.loss", "autograd.backward", "optim.adamw"} <= set(names)
    steps = math.ceil(len(SENTENCES) / BATCH)
    assert names.count("optim.adamw") == steps
    assert names.count("encoder.encode") == steps     # both views in one encode


def test_step_clock_marks_each_optimizer_step():
    clock = workloads.StepClock()
    clock.install()
    try:
        _tiny_unsup_run()
    finally:
        clock.uninstall()
    assert len(clock.marks) == math.ceil(len(SENTENCES) / BATCH)
    assert training.adamw_step is clock._original


def test_traced_unsup_run_draws_masks_over_real_tokens_only():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _tiny_unsup_run()
    drawn = sum(span[4]["mask_units"] for span in tracer.spans
                if span[0] == "rng.mask")
    vocab = Vocab.build(SENTENCES)
    config = _tiny_config(vocab)
    real = sum(len(tokenize(s, vocab, config.max_seq_len)) for s in SENTENCES)
    # per view: the embedding site and the attention and FFN sites of every
    # layer but the last draw a row per real token; the last layer's two
    # sites draw the [CLS] rows alone, one per sentence
    full_sites = 1 + 2 * (config.num_layers - 1)
    assert drawn == 2 * config.hidden_dim * (full_sites * real + 2 * len(SENTENCES))


def test_traced_two_tier_cli_run_records_load_eval_and_save_spans(tmp_path):
    # the two-tier-toy workload's path: the loader, the dev evals and the save
    # must keep calling through the cli names perfbench patches
    from simcse_forge import cli

    data = {}
    for key, kind, size, seed in (("sts_train", "sts", 12, 1),
                                  ("sts_dev", "sts", 4, 2), ("nli", "nli", 6, 3)):
        data[key] = str(tmp_path / f"{key}.tsv")
        assert cli.main(["synth", kind, str(size), data[key],
                         "--seed", str(seed)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "encoder": {"hidden_dim": 8, "num_layers": 1, "num_heads": 2,
                    "ffn_dim": 16, "max_seq_len": 12},
        "dropout": {"kind": "adaptive", "alpha": 1.0},
        "train": {"task": "sts", "epochs": 1, "batch_size": 4},
        "two_tier": {"stage2_epochs": 1, "stage2_batch_size": 4,
                     "stage3_epochs": 1, "stage3_batch_size": 4},
        "data": data}))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        code = cli.main(["train", "two-tier", "--config", str(config),
                         "--out", str(tmp_path / "run")])
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"data.tokenize", "training.eval", "checkpoint.save"} <= names


def test_traced_embed_cli_run_records_encode_and_layer_spans(tmp_path):
    # the embed-cli workload's path: the checkpoint load, tokenizing and the
    # eval-mode encode must keep calling through the names perfbench patches
    from simcse_forge import cli
    from simcse_forge.checkpoint import Checkpoint, save_checkpoint

    vocab = Vocab.build(SENTENCES)
    config = _tiny_config(vocab)
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(config=config, params=init_params(config, Rng(0)),
                               vocab_tokens=vocab.tokens()), checkpoint)
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("".join(s + "\n" for s in SENTENCES))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        code = cli.main(["embed", str(checkpoint), str(sentences), "--batch-size",
                         str(BATCH), "--out", str(tmp_path / "emb")])
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert {"encoder.encode", "encoder.attention", "autograd.softmax",
            "autograd.gelu", "autograd.layer_norm", "checkpoint.load",
            "data.tokenize"} <= set(names)
    assert names.count("encoder.encode") == math.ceil(len(SENTENCES) / BATCH)
