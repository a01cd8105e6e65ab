"""Damaged text inputs end in a typed error and its exit code, never a traceback.

One-byte XORs and truncations of valid TSV and vocab files, and arbitrary
dotted ``--section.key value`` overrides, go through ``read_rows``,
``load_tsv``, ``Vocab.load`` and ``cli.main``. A damaged input is refused
with exit 2 (data) or 1 (usage or config) and one ``error:`` line, or, when
the damage leaves a well-formed file, accepted. Damage that always breaks
the format (a byte that is not UTF-8, a lost tab, a cut before a row's last
column, a duplicated vocab token) must be refused.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simcse_forge import cli
from simcse_forge.checkpoint import Checkpoint, save_checkpoint
from simcse_forge.data import (SCHEMAS, SYNTH_SCHEMAS, DataError, Vocab, load_tsv,
                               read_rows, synth_toy_corpus, texts_of_rows, write_tsv)
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.rng import Rng

ENCODER = {"hidden_dim": 8, "num_layers": 1, "num_heads": 2,
           "ffn_dim": 16, "max_seq_len": 12}
KINDS = sorted(SYNTH_SCHEMAS)          # nli has no task, so no eval run


class Reached(Exception):
    """The command got past its input checks to training."""


def _reached(*args, **kwargs):
    raise Reached


@pytest.fixture(scope="module")
def fuzz(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_inputs")
    good = {}
    for i, kind in enumerate(KINDS):
        rows = synth_toy_corpus(kind, 6, Rng(i))
        write_tsv(d / f"{kind}.tsv", SYNTH_SCHEMAS[kind], rows)
        good[kind] = (d / f"{kind}.tsv").read_bytes()
    texts = [t for kind in KINDS for t in texts_of_rows(
        read_rows(d / f"{kind}.tsv", SYNTH_SCHEMAS[kind]), SYNTH_SCHEMAS[kind])]
    vocab = Vocab.build(texts)
    vocab.save(d / "vocab.txt")
    good["vocab"] = (d / "vocab.txt").read_bytes()
    config = EncoderConfig(vocab_size=len(vocab), **ENCODER)
    save_checkpoint(Checkpoint(config=config, params=init_params(config, Rng(0)),
                               vocab_tokens=vocab.tokens()), d / "model.ckpt")
    (d / "run.json").write_text(json.dumps({
        "encoder": ENCODER, "train": {"task": "sst", "epochs": 1, "batch_size": 4},
        "data": {"train": str(d / "sst.tsv")}}))
    return d, good, vocab


def _damage(data, blob: bytes) -> bytes:
    """One byte XORed with a nonzero mask, or the blob cut short."""
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        return blob[:pos]
    damaged = bytearray(blob)
    damaged[pos] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(damaged)


def _always_broken(blob: bytes, damaged: bytes) -> bool:
    """Damage that no well-formed TSV survives: a byte that is not UTF-8, a
    tab that became another byte, a header byte changed (its line end aside),
    or a cut inside the header or before a data row's last tab."""
    header_end = blob.index(b"\n")
    if len(damaged) == len(blob):
        pos = next(i for i in range(len(blob)) if blob[i] != damaged[i])
        return damaged[pos] >= 0x80 or blob[pos] == 0x09 or pos < header_end
    cut = len(damaged)
    if cut < header_end:
        return True
    row_start = blob.rfind(b"\n", 0, cut) + 1
    row_end = blob.index(b"\n", cut) if b"\n" in blob[cut:] else len(blob)
    return row_start < cut <= blob.rindex(b"\t", row_start, row_end)


def _main(argv):
    """cli.main's exit code and stderr; any exception is a test failure."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_refused(code, err, codes=(2,)):
    assert code in codes, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Errno" not in err, err


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_read_rows_and_load_tsv_on_a_damaged_file(fuzz, data):
    d, good, vocab = fuzz
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    schema = SYNTH_SCHEMAS[kind]
    damaged = _damage(data, good[kind])
    path = d / "damaged.tsv"
    path.write_bytes(damaged)
    try:
        rows = read_rows(path, schema)
        examples = load_tsv(path, schema, vocab, 12)
    except DataError as exc:
        assert str(path) in str(exc)
        return
    assert not _always_broken(good[kind], damaged)
    assert len(examples) == len(rows)
    assert all(len(row) == len(SCHEMAS[schema].columns) for row in rows)


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_eval_on_a_damaged_dataset_exit_2_or_scores_it(fuzz, data):
    d, good, _ = fuzz
    task = data.draw(st.sampled_from([k for k in KINDS if k != "nli"]), label="task")
    damaged = _damage(data, good[task])
    (d / "damaged.tsv").write_bytes(damaged)
    code, err = _main(["eval", str(d / "model.ckpt"), "--data", str(d / "damaged.tsv"),
                       "--task", task, "--out", str(d / "eval")])
    if code == 0:
        assert not _always_broken(good[task], damaged)
    else:
        _assert_refused(code, err)
        assert "damaged.tsv" in err


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_damaged_vocab_file_exit_2_or_loads(fuzz, data):
    d, good, _ = fuzz
    blob = good["vocab"]
    if data.draw(st.booleans(), label="duplicate a line"):
        lines = blob.splitlines(keepends=True)
        line = data.draw(st.sampled_from(lines), label="line")
        at = data.draw(st.integers(0, len(lines)), label="at")
        damaged, broken = b"".join([*lines[:at], line, *lines[at:]]), True
    else:
        damaged = _damage(data, blob)
        broken = len(damaged) == len(blob) and max(damaged) >= 0x80
    path = d / "damaged_vocab.txt"
    path.write_bytes(damaged)
    try:
        Vocab.load(path)
        assert not broken
    except DataError:
        pass
    with mock.patch.object(cli, "train_single_task", _reached):
        try:
            code, err = _main(["train", "single", "--config", str(d / "run.json"),
                               "--data.vocab", str(path), "--out", str(d / "run")])
        except Reached:
            assert not broken
        else:
            _assert_refused(code, err)


SECTIONS = ["encoder", "dropout", "optim", "train", "data", "two_tier", "seed",
            "out", "nope", ""]
KEYS = ["hidden_dim", "num_heads", "max_seq_len", "pooling", "kind", "p", "lr",
        "weight_decay", "clip_norm", "epochs", "batch_size", "task", "tau",
        "train", "min_count", "stage2_lr", "x", ""]
VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1", "2", "0.5", "1e-3", "1e999", "-1e999", "NaN",
                     "Infinity", "true", "null", "[]", "{}", '"x"', "cls",
                     "mean", "[" * 5000, "{\"a\":" * 3000]),
    st.text(max_size=12))


@given(overrides=st.lists(st.tuples(st.sampled_from(SECTIONS), st.sampled_from(KEYS),
                                    VALUES), min_size=1, max_size=3))
@example(overrides=[("data", "train", "\n")])   # a path with a newline in it
@settings(max_examples=150, deadline=None, derandomize=True)
def test_dotted_overrides_exit_1_or_2_or_reach_training(fuzz, overrides):
    d, _, _ = fuzz
    argv = ["train", "single", "--config", str(d / "run.json"), "--out", str(d / "run")]
    for section, key, value in overrides:
        argv += [f"--{section}.{key}", value]
    with mock.patch.object(cli, "train_single_task", _reached):
        try:
            code, err = _main(argv)
        except Reached:
            # accepted: every path is a known key and no number is non-finite
            for section, key, value in overrides:
                assert section in SECTIONS[:6] and key, (section, key)
                assert value not in ("1e999", "-1e999", "NaN", "Infinity")
            return
    _assert_refused(code, err, codes=(1, 2))


def test_a_field_past_the_csv_size_limit_exit_2(fuzz):
    # an unclosed quote runs the field to the end of the file
    d, _, _ = fuzz
    path = d / "long_field.tsv"
    path.write_text("id\tsentence\tlabel\n1\t\"" + "word " * 30000 + "\t2\n")
    with pytest.raises(DataError, match="long_field.tsv':2: field larger than"):
        read_rows(path, "classification")
    code, err = _main(["eval", str(d / "model.ckpt"), "--data", str(path),
                       "--task", "sst"])
    _assert_refused(code, err)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_damaged_run_config_exit_1_or_reaches_training(fuzz, data):
    # one byte of a valid run.json XORed: the config loads and the stubbed
    # trainer runs (exit 0), or the run is refused as a usage error (exit 1)
    d, _, vocab = fuzz
    config = EncoderConfig(vocab_size=len(vocab), **ENCODER)
    trained = Checkpoint(config=config, params=init_params(config, Rng(0)),
                         vocab_tokens=vocab.tokens())
    blob = json.dumps({
        "seed": 3, "encoder": ENCODER, "dropout": {"kind": "standard", "p": 0.1},
        "optim": {"lr": 0.001, "weight_decay": 0.01},
        "train": {"task": "sst", "epochs": 1, "batch_size": 4}}).encode()
    damaged = bytearray(blob)
    # most bytes are keys and punctuation, where any change is refused; bit
    # flips of digits and spaces often leave a valid config, so both outcomes show
    values = [i for i, byte in enumerate(blob) if chr(byte) in "0123456789 "]
    pos = st.one_of(st.integers(0, len(blob) - 1), st.sampled_from(values))
    mask = st.one_of(st.sampled_from([1 << bit for bit in range(8)]), st.integers(1, 255))
    damaged[data.draw(pos, label="position")] ^= data.draw(mask, label="mask")
    path = d / "damaged_run.json"
    path.write_bytes(bytes(damaged))
    calls = []

    def trainer(*args, **kwargs):
        calls.append(args)
        return trained

    with mock.patch.object(cli, "train_single_task", trainer):
        code, err = _main(["train", "single", "--config", str(path),
                           "--data.train", str(d / "sst.tsv"), "--out", str(d / "xor_run")])
    if code == 0:
        assert len(calls) == 1, err
    else:
        assert not calls
        _assert_refused(code, err, codes=(1,))
