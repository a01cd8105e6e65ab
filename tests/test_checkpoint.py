import contextlib
import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcse_forge import autograd as ag
from simcse_forge.checkpoint import (MAGIC, Checkpoint, IntegrityError,
                                     config_from_dict, config_to_dict,
                                     load_checkpoint, params_hash,
                                     save_checkpoint)
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, encode, init_params, param_spec
from simcse_forge.rng import Rng


def toy_config(**kw):
    base = dict(vocab_size=19, hidden_dim=8, num_layers=2, num_heads=2,
                ffn_dim=16, max_seq_len=10,
                dropout=DropoutPolicy(kind="standard", p=0.25))
    base.update(kw)
    return EncoderConfig(**base)


def toy_checkpoint():
    config = toy_config()
    params = init_params(config, Rng(7))
    history = [{"stage": "baseline", "epoch": 0, "train_loss": 1.5,
                "dev_metric": 0.25}]
    vocab = ["alpha", "beta", "gamma"]
    return Checkpoint(config=config, params=params, stage="baseline",
                      history=history, vocab_tokens=vocab)


def sign(unsigned: bytes) -> bytes:
    """The bytes with their CRC32 trailer appended."""
    return unsigned + struct.pack("<I", zlib.crc32(unsigned))


def repack(blob: bytes, mutate) -> bytes:
    """Rewrite the JSON header of a saved checkpoint (body untouched) and
    re-sign the file, so the loader gets past the checksum to the check
    the mutation aims at."""
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + header_len])
    mutate(header)
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return sign(MAGIC + struct.pack("<I", len(enc)) + enc + blob[8 + header_len:-4])


# -- round trips ---------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    ck = toy_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert back.config == ck.config
    assert back.stage == ck.stage
    assert back.history == ck.history
    assert back.vocab_tokens == ck.vocab_tokens
    for (name_a, t_a), (name_b, t_b) in zip(ck.params.named_parameters(),
                                            back.params.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(t_a.data, t_b.data)


def test_loaded_params_encode_bit_identically(tmp_path):
    ck = toy_checkpoint()
    ids = np.array([[1, 5, 6, 2], [1, 7, 2, 0]])
    mask = np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]])
    with ag.no_grad():
        before = encode(ids, mask, ck.params, ck.config).pooled.data
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    with ag.no_grad():
        after = encode(ids, mask, back.params, back.config).pooled.data
    assert np.array_equal(before, after)       # 0 ulp apart


def test_save_is_byte_deterministic(tmp_path):
    ck = toy_checkpoint()
    p1, p2, p3 = (tmp_path / n for n in ("a.ckpt", "b.ckpt", "c.ckpt"))
    save_checkpoint(ck, p1)
    save_checkpoint(ck, p2)
    assert p1.read_bytes() == p2.read_bytes()
    save_checkpoint(load_checkpoint(p1), p3)   # load -> save is stable too
    assert p1.read_bytes() == p3.read_bytes()


def test_the_parameter_table_is_the_layout(tmp_path):
    ck = toy_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + header_len])
    assert sorted(header) == ["config", "history", "stage", "version", "vocab"]
    assert header["version"] == 2
    body = b"".join(ck.params[name].data.astype("<f8").tobytes()
                    for name, _, _ in param_spec(ck.config))
    assert blob == sign(blob[:8 + header_len] + body)
    assert not hasattr(load_checkpoint(path), "version")


def test_save_refuses_a_parameter_off_the_config_shape(tmp_path):
    ck = toy_checkpoint()
    ck.params["pooler.weight"].data = ck.params["pooler.weight"].data.T[:4]
    with pytest.raises(ValueError, match="pooler.weight"):
        save_checkpoint(ck, tmp_path / "model.ckpt")


def test_params_hash_tracks_content():
    ck = toy_checkpoint()
    h1 = params_hash(ck.params)
    assert h1 == params_hash(ck.params)
    assert params_hash(init_params(ck.config, Rng(7))) == h1
    ck.params["pooler.bias"].data = ck.params["pooler.bias"].data + 1e-9
    assert params_hash(ck.params) != h1


def test_config_dict_roundtrip():
    config = toy_config(pooling="mean",
                        dropout=DropoutPolicy(kind="curriculum", p=0.3,
                                              gamma=2.0, total_steps=100))
    assert config_from_dict(config_to_dict(config)) == config


def test_header_records_the_sts_head_and_defaults_to_cos_sigmoid(tmp_path):
    ck = toy_checkpoint()
    ck.config = toy_config(sts_head="sum_linear")
    path = tmp_path / "head.ckpt"
    save_checkpoint(ck, path)
    assert load_checkpoint(path).config.sts_head == "sum_linear"
    # a header without the key is read with the default head
    path.write_bytes(repack(path.read_bytes(), lambda h: h["config"].pop("sts_head")))
    assert load_checkpoint(path).config.sts_head == "cos_sigmoid"


def test_config_unknown_key_rejected():
    d = config_to_dict(toy_config())
    d["num_expert_layers"] = 3
    with pytest.raises(IntegrityError, match="num_expert_layers"):
        config_from_dict(d)


def test_checkpoint_stage_validated():
    ck = toy_checkpoint()
    with pytest.raises(ValueError, match="stage"):
        Checkpoint(config=ck.config, params=ck.params, stage="pretrain")


# -- corruption ---------------------------------------------------------------------

def test_load_missing_file(tmp_path):
    with pytest.raises(IntegrityError, match="not found"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_load_directory_is_an_integrity_error(tmp_path):
    with pytest.raises(IntegrityError, match="cannot read") as info:
        load_checkpoint(tmp_path)
    assert str(tmp_path) in str(info.value) and "Errno" not in str(info.value)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"GGUF" + b"\x00" * 64)
    with pytest.raises(IntegrityError, match="magic"):
        load_checkpoint(path)


def test_load_truncated_everywhere(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 4)
    cut = tmp_path / "cut.ckpt"
    # mid-header, mid-body, and missing checksum trailer
    for end in (6, 8 + header_len // 2, len(blob) - 200, len(blob) - 2):
        cut.write_bytes(blob[:end])
        with pytest.raises(IntegrityError):
            load_checkpoint(cut)


def test_load_corrupted_body_fails_crc(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<I", blob, 4)
    pos = 8 + header_len + 21        # somewhere inside the body
    blob[pos] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="checksum"):
        load_checkpoint(path)


def test_load_garbled_header_json(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    blob = bytearray(path.read_bytes())
    blob[10] = 0xFF                  # breaks UTF-8 decoding of the header
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="header"):
        load_checkpoint(path)


def test_load_deeply_nested_header_json(tmp_path):
    path = tmp_path / "deep.ckpt"
    header = b"[" * 200_000
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + bytes(8))
    with pytest.raises(IntegrityError, match="unreadable header"):
        load_checkpoint(path)


def test_load_version_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    path.write_bytes(repack(path.read_bytes(),
                            lambda h: h.update(version=99)))
    with pytest.raises(IntegrityError, match="version 99"):
        load_checkpoint(path)


def test_load_config_shape_conflict(tmp_path):
    # header config says a different width than the stored arrays
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    path.write_bytes(repack(path.read_bytes(),
                            lambda h: h["config"].update(hidden_dim=16)))
    with pytest.raises(IntegrityError, match="body holds .* bytes, but the config"):
        load_checkpoint(path)


def _drop(key):
    return lambda h: h.pop(key)


def _set(key, value, *path):
    def mutate(h):
        for part in path:
            h = h[part]
        h[key] = value
    return mutate


# each signed header mutation, with the message of the check it reaches
BAD_HEADERS = {
    "no-history": (_drop("history"), "field 'history' missing"),
    "unknown-dropout-key": (_set("rate", 0.1, "config", "dropout"),
                            "invalid encoder config: dropout .*rate"),
    "heads-do-not-divide-width": (_set("num_heads", 3, "config"),
                                  "invalid encoder config: .*num_heads"),
    "float-width": (_set("hidden_dim", 8.0, "config"),
                    "invalid encoder config: .*hidden_dim"),
    "unknown-sts-head": (_set("sts_head", "euclidean", "config"),
                         "invalid encoder config: .*euclidean"),
    "unknown-stage": (_set("stage", "pretrain"), "unknown stage 'pretrain'"),
    # toy_config's 19 ids hold 15 tokens after the 4 reserved ones
    "vocab-overflows-config": (_set("vocab", [f"w{i}" for i in range(13)]
                                    + ["alpha", "beta", "gamma"]),
                               "16 tokens, but config vocab_size 19 holds 15"),
    "duplicate-vocab-token": (_set("vocab", ["alpha", "beta", "gamma", "beta"]),
                              "duplicate vocabulary token 'beta'"),
}


@pytest.mark.parametrize("vocab, message", [
    ([f"w{i}" for i in range(16)], "16 tokens, but config vocab_size 19 holds 15"),
    (["alpha", "beta", "alpha"], "duplicate vocabulary token 'alpha'"),
], ids=["overflow", "duplicate"])
def test_load_rejects_a_vocabulary_the_config_cannot_hold(tmp_path, vocab, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_checkpoint(), path)
    path.write_bytes(repack(path.read_bytes(), _set("vocab", vocab)))
    with pytest.raises(IntegrityError, match=message):
        load_checkpoint(path)
    full = [f"w{i}" for i in range(15)]      # exactly fills the 15 ids
    path.write_bytes(repack(path.read_bytes(), _set("vocab", full)))
    assert load_checkpoint(path).vocab_tokens == full


@pytest.mark.parametrize("mutate, message", BAD_HEADERS.values(),
                         ids=BAD_HEADERS.keys())
def test_embed_rejects_crc_valid_bad_header_with_exit_3(tmp_path, capsys, mutate,
                                                        message):
    from simcse_forge.cli import main

    path, sentences = tmp_path / "model.ckpt", tmp_path / "s.txt"
    save_checkpoint(toy_checkpoint(), path)
    sentences.write_text("alpha beta\ngamma\n")
    args = ["embed", str(path), str(sentences), "--out", str(tmp_path)]
    assert main(args) == 0
    path.write_bytes(repack(path.read_bytes(), mutate))
    with pytest.raises(IntegrityError, match=message):
        load_checkpoint(path)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "checksum" not in err


@pytest.mark.parametrize("key, value", [("gamma", None), ("total_steps", {}),
                                        ("p", False)])
def test_embed_rejects_mistyped_dropout_header_with_exit_3(tmp_path, capsys,
                                                            key, value):
    # repack re-signs the rewritten header, so the load gets as far as the
    # config checks
    from simcse_forge.cli import main

    path, sentences = tmp_path / "model.ckpt", tmp_path / "s.txt"
    save_checkpoint(toy_checkpoint(), path)
    sentences.write_text("alpha beta\n")
    path.write_bytes(repack(path.read_bytes(),
                            _set(key, value, "config", "dropout")))
    assert main(["embed", str(path), str(sentences), "--out", str(tmp_path)]) == 3
    assert f"dropout {key}" in capsys.readouterr().err


# -- the checksum covers header and body -------------------------------------------

@pytest.mark.parametrize("old, new", [(b'"cat"', b'"cow"'),
                                      (b'"train_loss":1.5', b'"train_loss":0.5')],
                         ids=["vocab-token", "history"])
def test_load_rejects_a_rewritten_header(tmp_path, old, new):
    ck = toy_checkpoint()
    ck.vocab_tokens = ["the", "cat", "sat"]
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        load_checkpoint(path)


def _format_1_file(ck: Checkpoint) -> bytes:
    """The bytes format 1 wrote: a header with an array manifest and a body
    size, the body, and a CRC32 of the body alone."""
    body, arrays = b"", []
    for name, t in ck.params.named_parameters():
        arrays.append({"name": name, "shape": list(t.shape), "offset": len(body)})
        body += t.data.astype("<f8").tobytes()
    header = {"version": 1, "stage": ck.stage, "config": config_to_dict(ck.config),
              "vocab": ck.vocab_tokens, "history": ck.history, "arrays": arrays,
              "body_size": len(body)}
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (MAGIC + struct.pack("<I", len(enc)) + enc + body
            + struct.pack("<I", zlib.crc32(body)))


def test_embed_refuses_a_format_1_checkpoint_with_exit_3(tmp_path, capsys):
    from simcse_forge.cli import main

    path, sentences = tmp_path / "v1.ckpt", tmp_path / "s.txt"
    path.write_bytes(_format_1_file(toy_checkpoint()))
    sentences.write_text("alpha beta\n")
    assert main(["embed", str(path), str(sentences), "--out", str(tmp_path)]) == 3
    assert "format version 1 unsupported (expected 2)" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a saved checkpoint and a sentence file."""
    root = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(toy_checkpoint(), root / "good.ckpt")
    (root / "s.txt").write_text("alpha beta\ngamma\n")
    return root


def _assert_refused(root, damaged: bytes):
    from simcse_forge.cli import main

    path = root / "damaged.ckpt"
    path.write_bytes(damaged)
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["embed", str(path), str(root / "s.txt"), "--out", str(root / "out")])
    assert code == 3 and err.getvalue().startswith("error:")


@given(data=st.data())
@settings(max_examples=200, deadline=None, database=None)
def test_any_one_byte_flip_is_refused(fuzz_dir, data):
    blob = bytearray((fuzz_dir / "good.ckpt").read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    _assert_refused(fuzz_dir, bytes(blob))


@given(data=st.data())
@settings(max_examples=60, deadline=None, database=None)
def test_any_truncation_is_refused(fuzz_dir, data):
    blob = (fuzz_dir / "good.ckpt").read_bytes()
    _assert_refused(fuzz_dir, blob[:data.draw(st.integers(0, len(blob) - 1))])
