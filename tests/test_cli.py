import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from simcse_forge import experiments, training
from simcse_forge.cli import main
from simcse_forge.checkpoint import load_checkpoint
from simcse_forge.config import load_run_config
from simcse_forge.data import SCHEMAS, read_rows, write_tsv
from simcse_forge.evaluation import emit_report, parse_report_tsv
from simcse_forge.experiments import EXPERIMENTS, ExperimentConfig
from simcse_forge.objectives import SIMILARITY_HEADS

ENCODER = {"hidden_dim": 8, "num_layers": 1, "num_heads": 2,
           "ffn_dim": 16, "max_seq_len": 12}


def synth(tmp_path, kind, size, name, seed):
    path = tmp_path / name
    assert main(["synth", kind, str(size), str(path), "--seed", str(seed)]) == 0
    return str(path)


def write_config(tmp_path, **extra):
    payload = {"seed": 3,
               "encoder": ENCODER,
               "dropout": {"kind": "standard", "p": 0.1},
               "optim": {"lr": 1e-3},
               "train": {"task": "sst", "epochs": 2, "batch_size": 8}}
    payload.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def sst_run(tmp_path):
    train = synth(tmp_path, "sst", 24, "train.tsv", seed=1)
    dev = synth(tmp_path, "sst", 8, "dev.tsv", seed=2)
    config = write_config(tmp_path, data={"train": train, "dev": dev})
    out = tmp_path / "run"
    assert main(["train", "single", "--config", config,
                 "--out", str(out)]) == 0
    return tmp_path, config, out


# -- synth ------------------------------------------------------------------------

def test_synth_roundtrips_and_is_deterministic(tmp_path):
    a = synth(tmp_path, "paraphrase", 10, "a.tsv", seed=9)
    b = synth(tmp_path, "paraphrase", 10, "b.tsv", seed=9)
    c = synth(tmp_path, "paraphrase", 10, "c.tsv", seed=10)
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a, "rb").read() != open(c, "rb").read()
    assert len(read_rows(a, "pair_labeled")) == 10


def test_synth_size_zero_is_usage_error(tmp_path):
    assert main(["synth", "sst", "0", str(tmp_path / "z.tsv")]) == 1
    assert main(["synth", "haiku", "5", str(tmp_path / "h.tsv")]) == 1


def test_synth_bad_env_seed_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIMCSE_FORGE_SEED", "x")
    capsys.readouterr()
    assert main(["synth", "sts", "6", str(tmp_path / "a.tsv")]) == 1
    assert "SIMCSE_FORGE_SEED must be an integer, got 'x'" in capsys.readouterr().err
    assert not (tmp_path / "a.tsv").exists()


def test_synth_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMCSE_FORGE_SEED", "42")
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert main(["synth", "sts", "6", str(a)]) == 0
    monkeypatch.delenv("SIMCSE_FORGE_SEED")
    assert main(["synth", "sts", "6", str(b), "--seed", "42"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_and_experiment_create_parent_directories(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "sst", "5", "data/sst.tsv"]) == 0
    assert len(read_rows(tmp_path / "data" / "sst.tsv", "classification")) == 5
    assert main(["experiment", "dropout", "--train-size", "8", "--dev-size", "4",
                 "--epochs", "1", "--out", "res/deep/x.tsv"]) == 0
    assert parse_report_tsv((tmp_path / "res" / "deep" / "x.tsv").read_text())


@pytest.mark.parametrize("command", ["synth", "experiment"])
@pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
def test_unwritable_output_path_exit_1_naming_it(tmp_path, capsys, command, where):
    (tmp_path / "afile").write_text("x")
    out = tmp_path / "afile" / "x.tsv" if where == "under-a-file" else tmp_path
    argv = (["synth", "sst", "5", str(out)] if command == "synth" else
            ["experiment", "dropout", "--train-size", "8", "--dev-size", "4",
             "--epochs", "1", "--out", str(out)])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    named = tmp_path / "afile" if where == "under-a-file" else tmp_path
    assert err.startswith(f"error: cannot write {str(named)!r}: ") and "Errno" not in err


# -- train ------------------------------------------------------------------------

def test_train_single_writes_run_directory(sst_run):
    _, _, out = sst_run
    for name in ("checkpoint.ckpt", "metrics.tsv", "vocab.txt", "manifest.json"):
        assert (out / name).exists(), name
    reports = parse_report_tsv((out / "metrics.tsv").read_text())
    assert len(reports) == 1
    assert reports[0].task == "sst" and reports[0].metric == "accuracy"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["command"] == "train single"
    assert manifest["config"]["train"]["epochs"] == 2
    assert "wall_time_s" in manifest
    assert load_checkpoint(out / "checkpoint.ckpt").stage == "baseline"


def test_train_is_byte_deterministic(sst_run):
    tmp_path, config, out = sst_run
    out2 = tmp_path / "run2"
    assert main(["train", "single", "--config", config,
                 "--out", str(out2)]) == 0
    assert (out / "checkpoint.ckpt").read_bytes() == \
        (out2 / "checkpoint.ckpt").read_bytes()
    assert (out / "metrics.tsv").read_bytes() == (out2 / "metrics.tsv").read_bytes()
    assert (out / "vocab.txt").read_bytes() == (out2 / "vocab.txt").read_bytes()


def test_seed_flag_beats_config_file(sst_run):
    tmp_path, config, out = sst_run
    out2 = tmp_path / "run_seed7"
    assert main(["train", "single", "--config", config, "--seed", "7",
                 "--out", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert (out2 / "checkpoint.ckpt").read_bytes() != \
        (out / "checkpoint.ckpt").read_bytes()


def test_dotted_override_changes_run(sst_run):
    tmp_path, config, out = sst_run
    out2 = tmp_path / "run_lr"
    assert main(["train", "single", "--config", config, "--optim.lr", "5e-4",
                 "--out", str(out2)]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["optim"]["lr"] == 5e-4


def test_default_run_directory_naming(tmp_path, monkeypatch):
    train = synth(tmp_path, "sst", 8, "train.tsv", seed=1)
    config = write_config(tmp_path, data={"train": train},
                          train={"task": "sst", "epochs": 0, "batch_size": 8})
    monkeypatch.chdir(tmp_path)
    assert main(["train", "single", "--config", config]) == 0
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    assert re.fullmatch(r"\d{8}-\d{6}-[0-9a-f]{8}", runs[0].name)


def test_train_two_tier_stage_metrics(tmp_path):
    sts_train = synth(tmp_path, "sts", 16, "sts_train.tsv", seed=1)
    sts_dev = synth(tmp_path, "sts", 6, "sts_dev.tsv", seed=2)
    nli = synth(tmp_path, "nli", 8, "nli.tsv", seed=3)
    config = write_config(
        tmp_path,
        train={"task": "sts", "epochs": 1, "batch_size": 8},
        two_tier={"stage2_epochs": 1, "stage2_batch_size": 8,
                  "stage2_lr": 1e-3, "stage3_epochs": 1,
                  "stage3_batch_size": 8, "stage3_lr": 1e-3},
        data={"sts_train": sts_train, "sts_dev": sts_dev, "nli": nli})
    out = tmp_path / "tt"
    assert main(["train", "two-tier", "--config", config,
                 "--out", str(out)]) == 0
    reports = parse_report_tsv((out / "metrics.tsv").read_text())
    assert [r.stage for r in reports] == ["baseline", "unsup_simcse",
                                          "sup_simcse"]
    assert load_checkpoint(out / "checkpoint.ckpt").stage == "two_tier"


def test_train_missing_data_path_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, data={"train": str(tmp_path / "ghost.tsv")})
    assert main(["train", "single", "--config", config,
                 "--out", str(tmp_path / "x")]) == 2
    assert "ghost.tsv" in capsys.readouterr().err


def test_train_multitask_header_only_train_tsv_exit_2(tmp_path, capsys):
    sst_train = tmp_path / "sst_train.tsv"
    sst_train.write_text("\t".join(SCHEMAS["classification"].columns) + "\n")
    data = {"sst_train": str(sst_train),
            "sst_dev": synth(tmp_path, "sst", 6, "sst_dev.tsv", seed=1),
            "para_train": synth(tmp_path, "paraphrase", 8, "para_train.tsv", seed=2),
            "para_dev": synth(tmp_path, "paraphrase", 4, "para_dev.tsv", seed=3),
            "sts_train": synth(tmp_path, "sts", 8, "sts_train.tsv", seed=4),
            "sts_dev": synth(tmp_path, "sts", 4, "sts_dev.tsv", seed=5)}
    config = write_config(tmp_path, data=data)
    capsys.readouterr()
    run = tmp_path / "mt"
    assert main(["train", "multitask", "--config", config, "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'sst'" in err
    assert "Traceback" not in err
    assert not (run / "checkpoint.ckpt").exists()


def _header_only(tmp_path, schema):
    path = tmp_path / f"{schema}_empty.tsv"
    path.write_text("\t".join(SCHEMAS[schema].columns) + "\n")
    return str(path)


@pytest.mark.parametrize("variant", ["single", "transfer", "two-tier"])
def test_header_only_train_tsv_exit_2(tmp_path, capsys, variant):
    data = {"train": _header_only(tmp_path, "classification"),
            "sts_train": _header_only(tmp_path, "pair_scored"),
            "sts_dev": synth(tmp_path, "sts", 4, "sts_dev.tsv", seed=1),
            "nli": synth(tmp_path, "nli", 4, "nli.tsv", seed=2)}
    if variant == "transfer":
        source = tmp_path / "source"
        config = write_config(tmp_path, data={
            "train": synth(tmp_path, "sst", 8, "sst.tsv", seed=3)})
        assert main(["train", "single", "--config", config,
                     "--out", str(source)]) == 0
        data["checkpoint"] = str(source / "checkpoint.ckpt")
    config = write_config(tmp_path, data=data)
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", variant, "--config", config, "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train set is empty" in err
    assert not (run / "checkpoint.ckpt").exists()


_DEV_SCHEMA = {"dev": "classification", "sst_dev": "classification",
               "para_dev": "pair_labeled", "sts_dev": "pair_scored"}


@pytest.mark.parametrize("variant, key, rows", [
    ("multitask", "sst_dev", 0), ("multitask", "para_dev", 0),
    ("multitask", "sts_dev", 1), ("two-tier", "sts_dev", 0),
    ("two-tier", "sts_dev", 1), ("single", "dev", 0), ("transfer", "dev", 0)])
def test_too_small_dev_set_exit_2_before_training(tmp_path, capsys, monkeypatch,
                                                  variant, key, rows):
    small = (synth(tmp_path, "sts", rows, "small_dev.tsv", seed=9) if rows
             else _header_only(tmp_path, _DEV_SCHEMA[key]))
    data = {"train": synth(tmp_path, "sst", 8, "sst.tsv", seed=1),
            "sst_train": synth(tmp_path, "sst", 8, "sst.tsv", seed=1),
            "sst_dev": synth(tmp_path, "sst", 4, "sst_dev.tsv", seed=2),
            "para_train": synth(tmp_path, "paraphrase", 8, "para.tsv", seed=3),
            "para_dev": synth(tmp_path, "paraphrase", 4, "para_dev.tsv", seed=4),
            "sts_train": synth(tmp_path, "sts", 8, "sts.tsv", seed=5),
            "sts_dev": synth(tmp_path, "sts", 4, "sts_dev.tsv", seed=6),
            "nli": synth(tmp_path, "nli", 4, "nli.tsv", seed=7)}
    if variant == "transfer":
        source = tmp_path / "source"
        assert main(["train", "single", "--config", write_config(tmp_path, data=data),
                     "--out", str(source)]) == 0
        data["checkpoint"] = str(source / "checkpoint.ckpt")
    data[key] = small
    config = write_config(tmp_path, data=data)

    def no_step(*args, **kwargs):
        raise AssertionError("an optimizer step ran before the dev set was checked")

    monkeypatch.setattr(training, "adamw_step", no_step)
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", variant, "--config", config, "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and Path(small).name in err
    assert f"has {rows} example(s)" in err
    assert not (run / "checkpoint.ckpt").exists()


def test_experiment_with_no_train_examples_exit_2(capsys):
    assert main(["experiment", "transfer", "--train-size", "0"]) == 2
    assert "train set is empty" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--train-size", "--dev-size"])
def test_experiment_negative_size_exit_1_before_any_corpus(capsys, monkeypatch, flag):
    def no_corpus(*args, **kwargs):
        raise AssertionError("a corpus was drawn for a negative size")

    monkeypatch.setattr(experiments, "synth_toy_corpus", no_corpus)
    capsys.readouterr()
    assert main(["experiment", "single-vs-multitask", flag, "-5"]) == 1
    assert "must be >= 0, got -5" in capsys.readouterr().err


@pytest.fixture()
def no_experiment_work(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached training or a corpus draw")

    for stub in ("synth_toy_corpus", "train_single_task", "train_multitask",
                 "train_unsup_simcse", "run_two_tier", "transfer_finetune"):
        monkeypatch.setattr(experiments, stub, unreachable)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
@pytest.mark.parametrize("size", ["0", "1"])
def test_experiment_dev_size_below_2_exit_1_before_training(capsys, no_experiment_work,
                                                           name, size):
    # every harness scores STS Pearson on the dev split, which needs two points
    capsys.readouterr()
    assert main(["experiment", name, "--dev-size", size]) == 1
    assert f"dev_size must be >= 2, got {size}" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_batch_size_0_exit_1_before_training(capsys, no_experiment_work,
                                                        name):
    # the derived train config is checked when the experiment config is built
    capsys.readouterr()
    assert main(["experiment", name, "--batch-size", "0"]) == 1
    assert "batch_size must be >= 1" in capsys.readouterr().err


def test_experiment_config_checks_field_types():
    with pytest.raises(ValueError, match="^train_size must be an integer, got 1.5$"):
        ExperimentConfig(train_size=1.5)
    with pytest.raises(ValueError, match="^lr must be a number, got '1'$"):
        ExperimentConfig(lr="1")


@pytest.mark.parametrize("key, extra, args", [
    ("out", {"out": 5}, []),
    ("data.train", {}, ["--data.train", "5"]),
    ("data.min_count", {}, ["--data.min_count", "x"]),
])
def test_mistyped_run_config_value_exit_1(tmp_path, capsys, key, extra, args):
    train = synth(tmp_path, "sst", 8, "train.tsv", seed=1)
    config = write_config(tmp_path, data={"train": train}, **extra)
    capsys.readouterr()
    assert main(["train", "single", "--config", config, *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be")


def test_train_usage_errors(tmp_path):
    config = write_config(tmp_path)
    # single needs data.train
    assert main(["train", "single", "--config", config,
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["train", "warp-drive", "--config", config]) == 1
    assert main(["train", "single", "--config", str(tmp_path / "none.json")]) == 1
    assert main(["train", "single", "--config", config, "--optim.lr"]) == 1
    assert main(["flatten"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


def test_train_from_nan_weights_exit_1_without_checkpoint(sst_run, capsys):
    from simcse_forge.checkpoint import save_checkpoint

    tmp_path, _, out = sst_run
    ck = load_checkpoint(out / "checkpoint.ckpt")
    ck.params["layers.0.attn.wq"].data[0, 0] = float("nan")
    save_checkpoint(ck, tmp_path / "nan.ckpt")
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("the dog and the cat\nmoon over the harbor\n")
    config = write_config(tmp_path, data={"checkpoint": str(tmp_path / "nan.ckpt"),
                                          "sentences": str(sentences)})
    run = tmp_path / "nan_run"
    assert main(["train", "unsup-simcse", "--config", config,
                 "--out", str(run)]) == 1
    assert "error: unsup_simcse stage: non-finite loss" in capsys.readouterr().err
    assert not (run / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("variant", ["unsup-simcse", "sup-simcse", "transfer"])
def test_checkpoint_variants_tokenize_at_the_checkpoint_length(tmp_path, variant):
    # the source trains at max_seq_len 6; the run config keeps its 12, and
    # every synthetic sentence has five words, i.e. seven tokens
    train = synth(tmp_path, "sst", 16, "train.tsv", seed=1)
    config = write_config(tmp_path, data={"train": train})
    source = tmp_path / "source"
    assert main(["train", "single", "--config", config, "--out", str(source),
                 "--encoder.max_seq_len", "6"]) == 0
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("the dog and the cat\nmoon over the quiet harbor\n")
    data = {"checkpoint": str(source / "checkpoint.ckpt"),
            "sentences": str(sentences), "train": train,
            "nli": synth(tmp_path, "nli", 8, "nli.tsv", seed=2)}
    config = write_config(tmp_path, data=data)
    out = tmp_path / "run"
    assert main(["train", variant, "--config", config, "--out", str(out)]) == 0
    assert load_checkpoint(out / "checkpoint.ckpt").config.max_seq_len == 6


@pytest.mark.parametrize("variant, flag, value", [
    ("transfer", "--encoder.sts_head", "sum_linear"),
    ("unsup-simcse", "--dropout.p", "0.25")])
def test_checkpoint_variants_refuse_encoder_and_dropout_overrides(
        sst_run, capsys, monkeypatch, variant, flag, value):
    # the source checkpoint's encoder and dropout policy would silently win;
    # `train single --encoder.sts_head` is checked by the eval head test
    from simcse_forge import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("loaded the source checkpoint")

    monkeypatch.setattr(cli, "load_checkpoint", unreachable)
    tmp_path, _, out = sst_run
    config = write_config(tmp_path, data={
        "checkpoint": str(out / "checkpoint.ckpt"),
        "sentences": _sentences(tmp_path / "two.txt", [
            "the dog and the cat", "moon over the harbor"]),
        "train": str(tmp_path / "train.tsv")})
    capsys.readouterr()
    run = tmp_path / "override_run"
    assert main(["train", variant, "--config", config, "--out", str(run),
                 flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not run.exists()


def _sentences(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


@pytest.mark.parametrize("variant", ["unsup-simcse", "sup-simcse"])
def test_contrastive_alignment_row_uses_the_stage_dropout(tmp_path, variant):
    # the source trains at p 0.3; the stage trains at p 0.1, and so does
    # the alignment its metrics.tsv reports
    from dataclasses import replace

    from simcse_forge.data import Vocab, load_tsv, sentences_of, tokenize
    from simcse_forge.training import dropout_alignment

    train = synth(tmp_path, "sst", 16, "train.tsv", seed=1)
    config = write_config(tmp_path, data={"train": train})
    source = tmp_path / "source"
    assert main(["train", "single", "--config", config, "--out", str(source),
                 "--dropout.p", "0.3"]) == 0
    lines = ["the dog and the cat", "moon over the quiet harbor",
             "the dog and the cat"]
    nli = synth(tmp_path, "nli", 6, "nli.tsv", seed=2)
    config = write_config(tmp_path, data={
        "checkpoint": str(source / "checkpoint.ckpt"), "nli": nli,
        "sentences": _sentences(tmp_path / "sentences.txt", lines)})
    out = tmp_path / "run"
    assert main(["train", variant, "--config", config, "--out", str(out)]) == 0

    ck = load_checkpoint(out / "checkpoint.ckpt")
    assert ck.config.dropout.p == 0.3
    vocab, max_len = Vocab.from_tokens(ck.vocab_tokens), ck.config.max_seq_len
    if variant == "sup-simcse":
        lines = sentences_of(load_tsv(nli, "triplet", vocab, max_len))
    else:       # the repeated line trains, and is scored, once
        lines = lines[:2]
    pool = [tokenize(s, vocab, max_len) for s in lines]
    [row] = parse_report_tsv((out / "metrics.tsv").read_text())
    assert row.metric == "alignment" and row.n_examples == len(pool)
    stage = replace(ck.config, dropout=replace(ck.config.dropout, p=0.1))
    assert row.value == dropout_alignment(ck.params, stage, pool, seed=3)
    assert row.value != dropout_alignment(ck.params, ck.config, pool, seed=3)


def test_unsup_simcse_on_one_sentence_exit_2(sst_run, capsys):
    tmp_path, _, out = sst_run
    config = write_config(tmp_path, data={
        "checkpoint": str(out / "checkpoint.ckpt"),
        "sentences": _sentences(tmp_path / "one.txt", ["the dog and the cat"])})
    capsys.readouterr()
    run = tmp_path / "one_run"
    assert main(["train", "unsup-simcse", "--config", config, "--out", str(run)]) == 2
    assert "at least 2 sentences" in capsys.readouterr().err
    assert not (run / "checkpoint.ckpt").exists()


def test_unsup_simcse_pool_keeps_one_of_the_lines_that_tokenize_alike(sst_run):
    tmp_path, _, out = sst_run
    config = write_config(tmp_path, data={
        "checkpoint": str(out / "checkpoint.ckpt"),
        "sentences": _sentences(tmp_path / "alike.txt", [
            "The cat sat", "the cat sat", "the  cat sat", "moon over the harbor"])})
    run = tmp_path / "alike_run"
    assert main(["train", "unsup-simcse", "--config", config, "--out", str(run)]) == 0
    [row] = parse_report_tsv((run / "metrics.tsv").read_text())
    assert row.metric == "alignment" and row.n_examples == 2


def test_unsup_simcse_batch_size_one_exit_1(sst_run, capsys):
    tmp_path, _, out = sst_run
    config = write_config(tmp_path, data={
        "checkpoint": str(out / "checkpoint.ckpt"),
        "sentences": _sentences(tmp_path / "three.txt", [
            "the dog and the cat", "moon over the harbor", "old clock ticks on"])})
    capsys.readouterr()
    run = tmp_path / "b1_run"
    assert main(["train", "unsup-simcse", "--config", config, "--out", str(run),
                 "--train.batch_size", "1"]) == 1
    assert "batch_size >= 2" in capsys.readouterr().err
    assert not (run / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("variant", ["unsup-simcse", "sup-simcse", "transfer"])
def test_checkpoint_variants_refuse_a_source_without_vocabulary(sst_run, capsys,
                                                                variant):
    from simcse_forge.checkpoint import save_checkpoint

    tmp_path, _, out = sst_run
    ck = load_checkpoint(out / "checkpoint.ckpt")
    ck.vocab_tokens = []
    save_checkpoint(ck, tmp_path / "bare.ckpt")
    config = write_config(tmp_path, data={
        "checkpoint": str(tmp_path / "bare.ckpt"),
        "sentences": _sentences(tmp_path / "two.txt", [
            "the dog and the cat", "moon over the harbor"]),
        "train": str(tmp_path / "train.tsv"),
        "nli": synth(tmp_path, "nli", 8, "nli.tsv", seed=2)})
    capsys.readouterr()
    run = tmp_path / "bare_run"
    assert main(["train", variant, "--config", config, "--out", str(run)]) == 1
    assert "checkpoint carries no vocabulary" in capsys.readouterr().err
    assert not (run / "checkpoint.ckpt").exists()


def test_bad_stage_lr_exit_1_before_any_step(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached an optimizer step")

    monkeypatch.setattr(training, "adamw_step", unreachable)
    config = write_config(tmp_path, train={"task": "sts", "epochs": 1}, data={
        "sts_train": synth(tmp_path, "sts", 8, "sts_train.tsv", seed=1),
        "sts_dev": synth(tmp_path, "sts", 4, "sts_dev.tsv", seed=2),
        "nli": synth(tmp_path, "nli", 4, "nli.tsv", seed=3)})
    capsys.readouterr()
    run = tmp_path / "tt"
    assert main(["train", "two-tier", "--config", config, "--out", str(run),
                 "--two_tier.stage2_lr", "-1"]) == 1
    assert capsys.readouterr().err == "error: 'two_tier' stage2: lr must be positive\n"
    assert not run.exists()


def _no_stage_trains(monkeypatch):
    """Replace the stage-1 trainer; returns the list its calls land in."""
    calls = []
    monkeypatch.setattr(training, "train_single_task",
                        lambda *args, **kwargs: calls.append(args))
    return calls


def test_stage2_batch_of_one_exit_1_before_stage_1_trains(tmp_path, capsys, monkeypatch):
    calls = _no_stage_trains(monkeypatch)
    config = write_config(tmp_path, train={"task": "sts", "epochs": 1},
                          two_tier={"stage2_batch_size": 1}, data={
        "sts_train": synth(tmp_path, "sts", 8, "sts_train.tsv", seed=1),
        "sts_dev": synth(tmp_path, "sts", 4, "sts_dev.tsv", seed=2),
        "nli": synth(tmp_path, "nli", 4, "nli.tsv", seed=3)})
    capsys.readouterr()
    run = tmp_path / "tt"
    assert main(["train", "two-tier", "--config", config, "--out", str(run)]) == 1
    assert capsys.readouterr().err == ("error: 'two_tier': stage2 batch_size must be "
                                       ">= 2 for in-batch negatives, got 1\n")
    assert calls == [] and not run.exists()
    # with no unsup stage, a stage-2 batch of 1 is never used and loads
    skip = json.loads(Path(config).read_text())
    skip["two_tier"]["skip_unsup"] = True
    Path(config).write_text(json.dumps(skip))
    assert load_run_config(config).two_tier_config().stage2.batch_size == 1


def test_two_tier_experiment_batch_of_one_exit_1_before_any_trainer(capsys, monkeypatch):
    calls = _no_stage_trains(monkeypatch)
    capsys.readouterr()
    assert main(["experiment", "two-tier-stages", "--batch-size", "1"]) == 1
    assert "stage2 batch_size must be >= 2" in capsys.readouterr().err
    assert calls == []


def _with_bad_target(tmp_path, kind, name, seed, target):
    """A synthetic TSV whose second data row (line 3) has the given target."""
    path = tmp_path / name
    synth(tmp_path, kind, 4, name, seed)
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    lines[2] = "\t".join(fields[:-1] + [target])
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_bad_target_in_single_train_file_names_file_and_line(tmp_path, capsys):
    train = _with_bad_target(tmp_path, "sst", "bad.tsv", 1, "7")
    config = write_config(tmp_path, data={"train": train})
    capsys.readouterr()
    assert main(["train", "single", "--config", config,
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {train!r}:3: label 7 outside 0..4\n"


def test_bad_target_in_multitask_train_file_names_file_and_line(tmp_path, capsys):
    data = {"sst_train": synth(tmp_path, "sst", 8, "sst_train.tsv", seed=1),
            "sst_dev": synth(tmp_path, "sst", 4, "sst_dev.tsv", seed=2),
            "para_train": _with_bad_target(tmp_path, "paraphrase", "para.tsv", 3, "2"),
            "para_dev": synth(tmp_path, "paraphrase", 4, "para_dev.tsv", seed=4),
            "sts_train": synth(tmp_path, "sts", 8, "sts_train.tsv", seed=5),
            "sts_dev": synth(tmp_path, "sts", 4, "sts_dev.tsv", seed=6)}
    config = write_config(tmp_path, data=data)
    capsys.readouterr()
    assert main(["train", "multitask", "--config", config,
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data['para_train']!r}:3: is_duplicate 2 not in {{0, 1}}\n")


def test_bad_target_in_two_tier_train_file_names_file_and_line(tmp_path, capsys):
    data = {"sts_train": _with_bad_target(tmp_path, "sts", "sts.tsv", 1, "7.5"),
            "sts_dev": synth(tmp_path, "sts", 4, "sts_dev.tsv", seed=2),
            "nli": synth(tmp_path, "nli", 4, "nli.tsv", seed=3)}
    config = write_config(tmp_path, train={"task": "sts", "epochs": 1, "batch_size": 4},
                          data=data)
    capsys.readouterr()
    assert main(["train", "two-tier", "--config", config,
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data['sts_train']!r}:3: similarity 7.5 outside [0, 5]\n")


# -- eval / embed -----------------------------------------------------------------

def test_eval_reproduces_recorded_dev_metric(sst_run, tmp_path, capsys):
    _, _, out = sst_run
    reports = parse_report_tsv((out / "metrics.tsv").read_text())
    dev = out.parent / "dev.tsv"
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data", str(dev),
                 "--task", "sst", "--out", str(out.parent / "eval")]) == 0
    printed = capsys.readouterr().out
    match = re.search(r"accuracy\s+([0-9.]+)", printed)
    assert match is not None
    assert float(match.group(1)) == pytest.approx(reports[0].value, abs=5e-5)


def test_eval_sts_writes_heatmap(tmp_path):
    sts_train = synth(tmp_path, "sts", 12, "t.tsv", seed=1)
    sts_dev = synth(tmp_path, "sts", 6, "d.tsv", seed=2)
    config = write_config(tmp_path,
                          train={"task": "sts", "epochs": 1, "batch_size": 8},
                          data={"train": sts_train, "dev": sts_dev})
    out = tmp_path / "sts_run"
    assert main(["train", "single", "--config", config, "--out", str(out)]) == 0
    eval_dir = tmp_path / "eval_out"
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data", sts_dev,
                 "--task", "sts", "--out", str(eval_dir)]) == 0
    lines = (eval_dir / "heatmap.csv").read_text().strip().splitlines()
    assert lines[0].startswith("true\\pred,")
    assert len(lines) == 7
    total = sum(int(v) for line in lines[1:] for v in line.split(",")[1:])
    assert total == 6


@pytest.mark.parametrize("head", SIMILARITY_HEADS)
def test_eval_scores_sts_with_the_checkpoint_head(tmp_path, capsys, head):
    sts_train = synth(tmp_path, "sts", 12, "t.tsv", seed=1)
    sts_dev = synth(tmp_path, "sts", 6, "d.tsv", seed=2)
    config = write_config(tmp_path,
                          train={"task": "sts", "epochs": 1, "batch_size": 4},
                          data={"train": sts_train, "dev": sts_dev})
    out = tmp_path / "sts_run"
    assert main(["train", "single", "--config", config, "--out", str(out),
                 "--encoder.sts_head", head]) == 0
    assert load_checkpoint(out / "checkpoint.ckpt").config.sts_head == head
    (report,) = parse_report_tsv((out / "metrics.tsv").read_text())
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data", sts_dev,
                 "--task", "sts", "--batch-size", "4",
                 "--out", str(tmp_path / "eval_out")]) == 0
    match = re.search(r"pearson\s+(-?[0-9.]+)", capsys.readouterr().out)
    assert match is not None and match.group(1) == f"{report.value:.4f}"


def test_eval_sts_encodes_each_dev_sentence_once(tmp_path, monkeypatch):
    from simcse_forge import training

    sts_train = synth(tmp_path, "sts", 8, "t.tsv", seed=1)
    sts_dev = synth(tmp_path, "sts", 16, "d.tsv", seed=2)
    config = write_config(tmp_path,
                          train={"task": "sts", "epochs": 1, "batch_size": 8},
                          data={"train": sts_train})
    out = tmp_path / "sts_run"
    assert main(["train", "single", "--config", config, "--out", str(out)]) == 0
    rows = []
    encode = training.encode

    def counted(token_ids, *args, **kwargs):
        rows.append(len(token_ids))
        return encode(token_ids, *args, **kwargs)

    monkeypatch.setattr(training, "encode", counted)
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data", sts_dev,
                 "--task", "sts", "--batch-size", "5",
                 "--out", str(tmp_path / "eval_out")]) == 0
    assert sum(rows) == 32       # 16 pairs, two sentences each
    assert (tmp_path / "eval_out" / "heatmap.csv").exists()


def test_eval_corrupt_checkpoint_exit_3(sst_run, tmp_path):
    _, _, out = sst_run
    bad = out.parent / "bad.ckpt"
    bad.write_bytes((out / "checkpoint.ckpt").read_bytes()[:200])
    assert main(["eval", str(bad), "--data", str(out.parent / "dev.tsv"),
                 "--task", "sst"]) == 3


def test_eval_missing_data_exit_2(sst_run):
    _, _, out = sst_run
    assert main(["eval", str(out / "checkpoint.ckpt"),
                 "--data", str(out.parent / "ghost.tsv"), "--task", "sst"]) == 2


def test_eval_one_row_sts_data_exit_2(sst_run, capsys):
    tmp_path, _, out = sst_run
    one = synth(tmp_path, "sts", 1, "one.tsv", seed=4)
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data", one,
                 "--task", "sts", "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert "one.tsv" in err and "has 1 example(s)" in err
    assert not (tmp_path / "eval" / "heatmap.csv").exists()


def test_eval_header_only_data_exit_2(sst_run, capsys):
    tmp_path, _, out = sst_run
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data",
                 _header_only(tmp_path, "classification"), "--task", "sst"]) == 2
    assert "empty dataset" in capsys.readouterr().err


def _flat_sts(tmp_path):
    """An sts file whose gold similarities all read 2.5: no Pearson r."""
    rows = read_rows(synth(tmp_path, "sts", 4, "sts_rows.tsv", seed=8), "pair_scored")
    path = tmp_path / "flat.tsv"
    write_tsv(path, "pair_scored", [row[:-1] + ("2.5",) for row in rows])
    return str(path)


@pytest.fixture()
def no_step(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an optimizer step ran before the dev set was checked")

    monkeypatch.setattr(training, "adamw_step", unreachable)


def test_eval_constant_gold_sts_data_exit_2(sst_run, capsys):
    tmp_path, _, out = sst_run
    flat = _flat_sts(tmp_path)
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data", flat,
                 "--task", "sts", "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert "'" + flat + "'" in err and "every gold similarity is 2.5" in err
    assert not (tmp_path / "eval" / "heatmap.csv").exists()


def test_train_single_constant_gold_sts_dev_exit_2_before_training(tmp_path, capsys,
                                                                  no_step):
    flat = _flat_sts(tmp_path)
    config = write_config(tmp_path, data={
        "train": synth(tmp_path, "sts", 8, "sts.tsv", seed=5), "dev": flat})
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", "single", "--config", config, "--out", str(run),
                 "--train.task", "sts"]) == 2
    err = capsys.readouterr().err
    assert "'" + flat + "'" in err and "every gold similarity is 2.5" in err
    assert not run.exists()


def test_two_tier_experiment_constant_gold_dev_split_exit_2_before_training(
        capsys, no_step):
    # this seed's two dev pairs have the same gold similarity
    capsys.readouterr()
    assert main(["experiment", "two-tier-stages", "--seed", "21", "--train-size",
                 "8", "--dev-size", "2", "--epochs", "1"]) == 2
    assert "sts dev split: every gold similarity" in capsys.readouterr().err


def test_embed_rows_and_duplicates(sst_run, tmp_path):
    _, _, out = sst_run
    sentences = out.parent / "sentences.txt"
    sentences.write_text("the dog and the cat\nmoon over the harbor\n"
                         "the dog and the cat\n")
    embed_dir = out.parent / "emb"
    assert main(["embed", str(out / "checkpoint.ckpt"), str(sentences),
                 "--out", str(embed_dir)]) == 0
    lines = (embed_dir / "embeddings.tsv").read_text().strip().splitlines()
    assert len(lines) == 4                      # header + 3 sentences
    first = lines[1].split("\t")
    assert len(first) == 1 + 8                  # sentence + hidden_dim floats
    assert lines[1] == lines[3]                 # duplicates embed identically


def test_embed_splits_lines_only_at_line_ends(sst_run):
    _, _, out = sst_run
    lines = ["the dog\x0cand the cat", "moon\x85over the harbor",
             "the\u2028river", "old clock"]
    sentences = out.parent / "breaks.txt"
    sentences.write_bytes(f"{lines[0]}\n{lines[1]}\r\n{lines[2]}\r{lines[3]}\n"
                          .encode("utf-8"))
    embed_dir = out.parent / "emb_breaks"
    assert main(["embed", str(out / "checkpoint.ckpt"), str(sentences),
                 "--out", str(embed_dir)]) == 0
    rows = (embed_dir / "embeddings.tsv").read_bytes().decode("utf-8").split("\n")
    assert [row.split("\t")[0] for row in rows[1:-1]] == lines


def test_embed_cosine_matches_internal_similarity(sst_run):
    import simcse_forge.autograd as ag
    from simcse_forge.autograd import Tensor
    from simcse_forge.data import pad_batch, tokenize, Vocab
    from simcse_forge.encoder import encode
    from simcse_forge.objectives import cosine

    _, _, out = sst_run
    ckpt = load_checkpoint(out / "checkpoint.ckpt")
    sentences = out.parent / "pair.txt"
    sentences.write_text("the dog saw a cat\nthe moon over a harbor\n")
    embed_dir = out.parent / "emb2"
    assert main(["embed", str(out / "checkpoint.ckpt"), str(sentences),
                 "--out", str(embed_dir)]) == 0
    lines = (embed_dir / "embeddings.tsv").read_text().strip().splitlines()
    a, b = (np.array([float(v) for v in line.split("\t")[1:]])
            for line in lines[1:])
    from_file = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    vocab = Vocab.from_tokens(ckpt.vocab_tokens)
    ids, mask = pad_batch([tokenize(s, vocab, 12)
                           for s in ("the dog saw a cat",
                                     "the moon over a harbor")])
    with ag.no_grad():
        pooled = encode(ids, mask, ckpt.params, ckpt.config).pooled
        internal = cosine(pooled[0:1], pooled[1:2]).data[0]
    assert from_file == pytest.approx(float(internal), abs=1e-12)


def test_embed_tsv_is_the_default_encode_bit_for_bit(tmp_path):
    # embed writes encode(ids, mask, params, config).pooled with default
    # arguments (the pooled-only pass, not sequence=True); repr round-trips floats
    from simcse_forge.checkpoint import Checkpoint, save_checkpoint
    from simcse_forge.data import Vocab, pad_batch, tokenize
    from simcse_forge.encoder import EncoderConfig, encode, init_params
    from simcse_forge.rng import Rng

    rng = np.random.default_rng(4)
    words = ["dog", "cat", "moon", "river", "clock", "letter", "harbor", "kettle"]
    lines = [" ".join(rng.choice(words, size=n)) for n in (5, 40, 12, 3, 27, 8, 19)]
    vocab = Vocab.build(lines)
    config = EncoderConfig(vocab_size=len(vocab))
    params = init_params(config, Rng(6))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(config=config, params=params,
                               vocab_tokens=vocab.tokens()), ckpt)
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("".join(line + "\n" for line in lines))
    assert main(["embed", str(ckpt), str(sentences), "--batch-size", "4",
                 "--out", str(tmp_path / "emb")]) == 0
    rows = (tmp_path / "emb" / "embeddings.tsv").read_text().splitlines()[1:]
    written = np.array([row.split("\t")[1:] for row in rows], dtype=np.float64)

    tokens = [tokenize(line, vocab, config.max_seq_len) for line in lines]
    direct = np.concatenate([encode(*pad_batch(tokens[i:i + 4]), params, config).pooled.data
                             for i in range(0, len(tokens), 4)])
    assert np.array_equal(written, direct)


def test_embed_empty_sentence_file_exit_2(sst_run):
    _, _, out = sst_run
    empty = out.parent / "empty.txt"
    empty.write_text("")
    assert main(["embed", str(out / "checkpoint.ckpt"), str(empty)]) == 2


# -- undecodable input and bad batch sizes ---------------------------------------

def test_embed_non_utf8_sentence_file_exit_2(sst_run, capsys):
    _, _, out = sst_run
    sentences = out.parent / "latin1.txt"
    sentences.write_bytes(b"\xffthe dog ran\n")
    capsys.readouterr()
    assert main(["embed", str(out / "checkpoint.ckpt"), str(sentences)]) == 2
    err = capsys.readouterr().err
    assert "latin1.txt" in err and "UTF-8" in err and "codec" not in err


def test_eval_non_utf8_tsv_exit_2(sst_run, capsys):
    _, _, out = sst_run
    dev = out.parent / "dev.tsv"
    bad = out.parent / "bad_dev.tsv"
    bad.write_bytes(dev.read_bytes().replace(b"\n", b"\xff\n", 2))
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint.ckpt"), "--data", str(bad),
                 "--task", "sst"]) == 2
    err = capsys.readouterr().err
    assert "bad_dev.tsv" in err and "UTF-8" in err and "codec" not in err


def test_train_missing_vocab_file_exit_2(tmp_path, capsys):
    train = synth(tmp_path, "sst", 8, "train.tsv", seed=1)
    config = write_config(tmp_path, data={"train": train})
    capsys.readouterr()
    assert main(["train", "single", "--config", config, "--data.vocab",
                 str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: file not found:") and "nope.txt" in err
    assert "Errno" not in err


def test_directory_paths_get_typed_errors(sst_run, capsys):
    # each reader maps an OSError other than a missing file to its exit code
    tmp_path, config, out = sst_run
    adir = tmp_path / "adir"
    adir.mkdir()
    sentences = tmp_path / "s.txt"
    sentences.write_text("the dog ran\n")
    capsys.readouterr()
    for argv, code in (
            (["train", "single", "--config", config, "--data.train", str(adir),
              "--out", str(tmp_path / "x")], 2),
            (["embed", str(out / "checkpoint.ckpt"), str(adir)], 2),
            (["embed", str(adir), str(sentences)], 3),
            (["train", "single", "--config", str(adir), "--out", str(tmp_path / "y")], 1)):
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "adir" in err, argv
        assert "Errno" not in err, argv


def test_train_non_utf8_vocab_file_exit_2(tmp_path, capsys):
    train = synth(tmp_path, "sst", 8, "train.tsv", seed=1)
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes(b"dog\n\xffcat\n")
    config = write_config(tmp_path, data={"train": train, "vocab": str(vocab)})
    capsys.readouterr()
    assert main(["train", "single", "--config", config,
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "vocab.txt" in err and "UTF-8" in err


@pytest.mark.parametrize("size", ["0", "-2"])
def test_batch_size_below_one_is_a_usage_error(sst_run, capsys, size):
    _, _, out = sst_run
    ckpt = str(out / "checkpoint.ckpt")
    sentences = out.parent / "s.txt"
    sentences.write_text("the dog ran\n")
    for argv in (["embed", ckpt, str(sentences)],
                 ["eval", ckpt, "--data", str(out.parent / "dev.tsv"), "--task", "sst"]):
        capsys.readouterr()
        assert main(argv + ["--batch-size", size]) == 1
        err = capsys.readouterr().err
        assert "--batch-size" in err and f"must be at least 1, got {size}" in err


# -- experiment -------------------------------------------------------------------

def test_experiment_seed_is_flag_then_env_then_0(capsys, monkeypatch):
    argv = ["experiment", "two-tier-stages", "--train-size", "8", "--dev-size", "4",
            "--epochs", "1"]

    def report(*flags):
        capsys.readouterr()
        assert main([*argv, *flags]) == 0
        return capsys.readouterr().out

    monkeypatch.delenv("SIMCSE_FORGE_SEED", raising=False)
    unset, five = report(), report("--seed", "5")
    assert unset != five
    monkeypatch.setenv("SIMCSE_FORGE_SEED", "5")
    assert report() == five
    assert report("--seed", "0") == unset


def test_experiment_bad_env_seed_exit_1(capsys, monkeypatch, no_experiment_work):
    monkeypatch.setenv("SIMCSE_FORGE_SEED", "abc")
    capsys.readouterr()
    assert main(["experiment", "two-tier-stages"]) == 1
    assert "SIMCSE_FORGE_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_matches_its_harness(tmp_path, capsys, name):
    flags = ["--train-size", "8", "--dev-size", "4", "--epochs", "1"]
    out = tmp_path / "report.tsv"
    capsys.readouterr()
    assert main(["experiment", name, *flags, "--out", str(out)]) == 0
    reports = EXPERIMENTS[name](ExperimentConfig(train_size=8, dev_size=4,
                                                 epochs=1))
    assert out.read_text(encoding="utf-8") == emit_report(reports)
    assert capsys.readouterr().out == emit_report(reports, format="pretty")
    assert main(["experiment", name, *flags, "--optim.lr", "1e-3"]) == 1
    assert "takes no overrides" in capsys.readouterr().err
    assert main(["experiment", name, "--batch-size", "0"]) == 1
    assert "batch_size must be >= 1" in capsys.readouterr().err
