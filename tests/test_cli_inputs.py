"""The CLI names the path or line it refuses.

A path holding a NUL byte cannot be opened at all. It ends in the exit code
of the file it names (2 data, 3 checkpoint, 1 config or output) and one
``error:`` line that quotes the path. A path holding a newline is quoted
too, so its error stays one line. A vocab file that repeats a token names
the file, the token and both of its lines.
"""

import contextlib
import io
import json

import pytest

from simcse_forge import cli
from simcse_forge.checkpoint import Checkpoint, save_checkpoint
from simcse_forge.data import Vocab
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.rng import Rng

ENCODER = {"hidden_dim": 8, "num_layers": 1, "num_heads": 2,
           "ffn_dim": 16, "max_seq_len": 12}
NUL = "a\0b"


def _unreachable(*args, **kwargs):
    raise AssertionError("the command ran past the path it cannot use")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """Valid inputs for every command, in the cwd."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "sst", "8", "train.tsv", "--seed", "1"]) == 0
    (tmp_path / "run.json").write_text(json.dumps({
        "encoder": ENCODER, "train": {"task": "sst", "epochs": 1, "batch_size": 4},
        "data": {"train": "train.tsv"}}))
    vocab = Vocab.build(["the dog ran", "a cat sat"])
    vocab.save(tmp_path / "vocab.txt")
    config = EncoderConfig(vocab_size=len(vocab), **ENCODER)
    save_checkpoint(Checkpoint(config=config, params=init_params(config, Rng(0)),
                               vocab_tokens=vocab.tokens()), tmp_path / "model.ckpt")
    (tmp_path / "s.txt").write_text("the dog ran\n")
    return tmp_path


def _main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("argv,code", [
    (["train", "single", "--config", "run.json", "--data.train", json.dumps(NUL)], 2),
    (["eval", "model.ckpt", "--data", NUL, "--task", "sst"], 2),
    (["eval", NUL, "--data", "train.tsv", "--task", "sst"], 3),
    (["embed", "model.ckpt", NUL], 2),
    (["embed", "model.ckpt", "s.txt", "--out", NUL], 1),
    (["synth", "sst", "4", NUL], 1),
    (["train", "single", "--config", NUL], 1),
], ids=["train-data", "eval-data", "eval-checkpoint", "embed-sentences",
        "embed-out", "synth-out", "train-config"])
def test_a_path_with_a_nul_byte_exits_with_its_code_and_is_quoted(
        workdir, monkeypatch, argv, code):
    for name in ("train_single_task", "predict_dataset", "encode", "synth_toy_corpus"):
        monkeypatch.setattr(cli, name, _unreachable)
    got, err = _main([*argv, "--out", "out"] if argv[0] == "train" else argv)
    assert got == code, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(NUL)[:-1] in err, err       # quoted, NUL escaped
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv,code", [
    (["eval", "no\nmodel.ckpt", "--data", "train.tsv", "--task", "sst"], 3),
    (["train", "single", "--config", "no\nrun.json"], 1),
    (["eval", "model.ckpt", "--data", "latin\n1.tsv", "--task", "sst"], 2),
    (["embed", "model.ckpt", "s.txt", "--out", "a\nfile/out"], 1),
    (["eval", "bad\nname.ckpt", "--data", "train.tsv", "--task", "sst"], 3),
    (["train", "single", "--config", "list\nrun.json"], 1),
    (["eval", "model.ckpt", "--data", "wrong\nheader.tsv", "--task", "sst"], 2),
    (["eval", "model.ckpt", "--data", "bad\nlabel.tsv", "--task", "sst"], 2),
    (["train", "single", "--config", "run.json", "--data.vocab", "dup\nvocab.txt"], 2),
    (["embed", "model.ckpt", "no\nsentences.txt"], 2),
], ids=["eval-checkpoint", "train-config", "non-utf8-data", "embed-out-under-a-file",
        "checkpoint-bad-magic", "config-not-an-object", "data-wrong-header",
        "data-bad-row", "vocab-repeated-token", "embed-no-sentences"])
def test_a_path_with_a_newline_is_quoted_on_one_error_line(workdir, monkeypatch,
                                                           argv, code):
    for name in ("train_single_task", "predict_dataset", "encode"):
        monkeypatch.setattr(cli, name, _unreachable)
    (workdir / "latin\n1.tsv").write_bytes("caf\u00e9\t1\n".encode("latin-1"))
    (workdir / "a\nfile").write_text("a regular file\n")
    (workdir / "bad\nname.ckpt").write_bytes(b"not a checkpoint")
    (workdir / "list\nrun.json").write_text("[1]")
    (workdir / "wrong\nheader.tsv").write_text("id\ttext\tlabel\n1\tthe dog\t2\n")
    (workdir / "bad\nlabel.tsv").write_text("id\tsentence\tlabel\n1\tthe dog\t7\n")
    (workdir / "dup\nvocab.txt").write_text("dog\ncat\ndog\n")
    (workdir / "no\nsentences.txt").write_text("\n\n")
    got, err = _main([*argv, "--out", "out"] if argv[0] == "train" else argv)
    assert got == code, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "\\n" in err, err              # the newline, escaped inside quotes


def test_a_vocab_file_that_repeats_a_token_names_the_file_token_and_lines(workdir):
    tokens = (workdir / "vocab.txt").read_text().splitlines()
    (workdir / "dup.txt").write_text("\n".join([*tokens, tokens[1]]) + "\n")
    code, err = _main(["train", "single", "--config", "run.json",
                       "--data.vocab", "dup.txt", "--out", "out"])
    assert code == 2, err
    assert err == (f"error: 'dup.txt':{len(tokens) + 1}: vocab token "
                   f"{tokens[1]!r} repeats line 2\n")
