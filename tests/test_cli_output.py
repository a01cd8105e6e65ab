"""Every command checks where it writes before any work.

A path under a regular file, or an output of the wrong kind, exits 1 with
``error: cannot write '<path>': <reason>`` (the path quoted as ``repr``
quotes it) before the command loads data,
trains, scores, encodes or synthesizes, and leaves no directory behind.
"""

import json
import os

import pytest

from simcse_forge import cli
from simcse_forge.checkpoint import Checkpoint, save_checkpoint
from simcse_forge.data import Vocab
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.rng import Rng

ENCODER = {"hidden_dim": 8, "num_layers": 1, "num_heads": 2,
           "ffn_dim": 16, "max_seq_len": 12}


def _unreachable(*args, **kwargs):
    raise AssertionError("the command's work ran before its output was checked")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """A directory holding valid inputs for every command, as the cwd."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "sst", "8", "train.tsv", "--seed", "1"]) == 0
    assert cli.main(["synth", "sts", "4", "sts.tsv", "--seed", "2"]) == 0
    (tmp_path / "run.json").write_text(json.dumps({
        "encoder": ENCODER, "train": {"task": "sst", "epochs": 1, "batch_size": 4},
        "data": {"train": "train.tsv"}}))
    vocab = Vocab.build(["the dog ran", "a cat sat"])
    config = EncoderConfig(vocab_size=len(vocab), **ENCODER)
    save_checkpoint(Checkpoint(config=config, params=init_params(config, Rng(0)),
                               vocab_tokens=vocab.tokens()), tmp_path / "model.ckpt")
    (tmp_path / "s.txt").write_text("the dog ran\n")
    (tmp_path / "afile").write_text("x")
    (tmp_path / "adir").mkdir()
    return tmp_path


# command -> (argv before the output path, argv after it, whether the output is
# a directory, and where its work is looked up: (module or dict, name))
COMMANDS = {
    "train single": (["train", "single", "--config", "run.json", "--out"], [], True,
                     (cli._DISPATCH, "single")),
    "eval --task sts": (["eval", "model.ckpt", "--data", "sts.tsv", "--task", "sts",
                         "--out"], [], True, (cli, "predict_dataset")),
    "embed": (["embed", "model.ckpt", "s.txt", "--out"], [], True, (cli, "encode")),
    "synth": (["synth", "sst", "5"], [], False, (cli, "synth_toy_corpus")),
    "experiment": (["experiment", "dropout", "--out"], ["--epochs", "1"], False,
                   (cli.EXPERIMENTS, "dropout")),
}


def _stub_work(monkeypatch, command):
    owner, name = COMMANDS[command][3]
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, _unreachable)
    else:
        monkeypatch.setattr(owner, name, _unreachable)


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, n), root)
                  for d, dirs, files in os.walk(root) for n in dirs + files)


@pytest.mark.parametrize("bad", ["parent-is-a-file", "wrong-kind"])
@pytest.mark.parametrize("command", COMMANDS)
def test_bad_output_exit_1_before_any_work(workdir, capsys, monkeypatch, command, bad):
    head, tail, is_dir, _ = COMMANDS[command]
    _stub_work(monkeypatch, command)
    # a file where a directory goes, or a directory where a file goes
    out, named, reason = (("afile/out", "afile", "it is not a directory")
                          if bad == "parent-is-a-file" else
                          ("afile", "afile", "it is not a directory") if is_dir else
                          ("adir", "adir", "it is a directory"))
    before = _tree(workdir)
    capsys.readouterr()
    assert cli.main([*head, out, *tail]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {named!r}: {reason}\n"
    assert "Errno" not in err and "File exists" not in err
    assert _tree(workdir) == before


@pytest.mark.parametrize("command", ["train single", "eval --task sts", "embed"])
def test_a_file_inside_the_output_directory_that_is_a_directory(workdir, capsys,
                                                                 monkeypatch, command):
    head, tail, _, _ = COMMANDS[command]
    _stub_work(monkeypatch, command)
    written = {"train single": "metrics.tsv", "eval --task sts": "heatmap.csv",
               "embed": "embeddings.tsv"}[command]
    (workdir / "out" / written).mkdir(parents=True)
    capsys.readouterr()
    assert cli.main([*head, "out", *tail]) == 1
    assert capsys.readouterr().err == (f"error: cannot write 'out/{written}': "
                                       f"it is a directory\n")


def test_default_run_directory_is_checked_before_training(workdir, capsys, monkeypatch):
    _stub_work(monkeypatch, "train single")
    (workdir / "runs").write_text("not a directory")
    capsys.readouterr()
    assert cli.main(["train", "single", "--config", "run.json"]) == 1
    assert capsys.readouterr().err == "error: cannot write 'runs': it is not a directory\n"


@pytest.mark.parametrize("argv", [
    ["train", "single", "--config", "run.json", "--data.train", "nope.tsv",
     "--out", "deep/run"],
    ["eval", "model.ckpt", "--data", "nope.tsv", "--task", "sts", "--out", "deep/ev"],
    ["embed", "model.ckpt", "nope.txt", "--out", "deep/emb"],
    ["experiment", "dropout", "--dev-size", "1", "--out", "deep/x.tsv"],
], ids=["train", "eval", "embed", "experiment"])
def test_a_failed_run_leaves_no_directory(workdir, argv):
    before = _tree(workdir)
    assert cli.main(argv) in (1, 2)
    assert _tree(workdir) == before


def test_outputs_are_created_with_their_parents(workdir):
    assert cli.main(["train", "single", "--config", "run.json", "--out", "a/b/run"]) == 0
    assert sorted(os.listdir("a/b/run")) == ["checkpoint.ckpt", "manifest.json",
                                             "metrics.tsv", "vocab.txt"]
    assert cli.main(["embed", "model.ckpt", "s.txt", "--out", "c/d"]) == 0
    assert cli.main(["eval", "model.ckpt", "--data", "sts.tsv", "--task", "sts",
                     "--out", "e/f"]) == 0
    assert os.path.isfile("c/d/embeddings.tsv") and os.path.isfile("e/f/heatmap.csv")
