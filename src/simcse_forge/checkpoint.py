"""Checkpoint serialization.

Binary layout (all integers little-endian):

    bytes 0..3    magic "SCF1"
    bytes 4..7    u32 header length
    header        UTF-8 JSON: format version, stage tag, encoder config,
                  vocab token list, training history, and an array manifest
                  of (name, shape, byte offset into the body)
    body          the named parameter arrays, raw float64 little-endian,
                  in manifest order
    trailer       u32 CRC32 of the body

The JSON header is written with sorted keys and fixed separators, so a
checkpoint's bytes are a pure function of its contents — two identically
seeded runs produce identical files. The CRC covers the body only; the
loader checks the header's fields, types, stage, config and manifest against
the parameter table (``encoder.param_spec``) instead, checks that the
vocabulary has no duplicate token and fits the config's ``vocab_size``, and
reports every mismatch as an IntegrityError.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .data import RESERVED_TOKENS
from .dropout import DropoutPolicy
from .encoder import EncoderConfig, ModelParams, param_spec

MAGIC = b"SCF1"
FORMAT_VERSION = 1
STAGES = ("baseline", "unsup_simcse", "sup_simcse", "two_tier", "transfer")


class IntegrityError(ValueError):
    """Unreadable, corrupt, truncated, or incompatible checkpoint file."""


# Top-level header fields besides the version, with the JSON type each holds.
_HEADER_FIELDS = {"stage": str, "config": dict, "vocab": list, "history": list,
                  "arrays": list, "body_size": int}


@dataclass
class Checkpoint:
    config: EncoderConfig
    params: ModelParams
    stage: str = "baseline"
    history: list[dict] = field(default_factory=list)
    vocab_tokens: list[str] = field(default_factory=list)
    version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}, expected one of {STAGES}")


def config_to_dict(config: EncoderConfig) -> dict:
    return dataclasses.asdict(config)   # recurses into the dropout policy


def config_from_dict(d: dict) -> EncoderConfig:
    d = dict(d)
    # an unknown key is a TypeError, a bad value a ValueError
    try:
        dropout = DropoutPolicy(**d.pop("dropout", {}))
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"invalid encoder config: dropout {exc}") from None
    try:
        return EncoderConfig(dropout=dropout, **d)
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"invalid encoder config: {exc}") from None


def params_hash(params: ModelParams) -> str:
    """sha256 over names and raw array bytes; stable across processes."""
    h = hashlib.sha256()
    for name, t in params.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    body = bytearray()
    manifest = []
    for name, t in ckpt.params.named_parameters():
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        manifest.append({"name": name, "shape": list(t.shape),
                         "offset": len(body)})
        body.extend(raw)
    header = {
        "version": ckpt.version,
        "stage": ckpt.stage,
        "config": config_to_dict(ckpt.config),
        "vocab": list(ckpt.vocab_tokens),
        "history": ckpt.history,
        "arrays": manifest,
        "body_size": len(body),
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(bytes(body))
        fh.write(struct.pack("<I", zlib.crc32(bytes(body))))


def load_checkpoint(path) -> Checkpoint:
    p = Path(path)
    if not p.exists():
        raise IntegrityError(f"checkpoint not found: {p}")
    blob = p.read_bytes()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise IntegrityError(f"{p}: not a checkpoint file (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header_end = 8 + header_len
    if len(blob) < header_end + 4:
        raise IntegrityError(f"{p}: truncated header")
    try:
        header = json.loads(blob[8:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise IntegrityError(f"{p}: unreadable header ({exc})") from None

    if not isinstance(header, dict):
        raise IntegrityError(f"{p}: header is not a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise IntegrityError(
            f"{p}: format version {version} unsupported (expected {FORMAT_VERSION})")
    for key, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(key), kind):
            raise IntegrityError(
                f"{p}: header field {key!r} missing or not a {kind.__name__}")
    if header["stage"] not in STAGES:
        raise IntegrityError(f"{p}: unknown stage {header['stage']!r}")
    if not all(isinstance(token, str) for token in header["vocab"]):
        raise IntegrityError(f"{p}: vocabulary holds a non-string token")
    body_size = header["body_size"]
    body_end = header_end + body_size
    if body_size < 0 or len(blob) < body_end + 4:
        raise IntegrityError(f"{p}: truncated body "
                             f"(expected {body_size} bytes)")
    body = blob[header_end:body_end]
    (crc,) = struct.unpack_from("<I", blob, body_end)
    if zlib.crc32(body) != crc:
        raise IntegrityError(f"{p}: body checksum mismatch")

    config = config_from_dict(header["config"])
    vocab, seen = header["vocab"], set()
    for token in vocab:
        if token in seen:
            raise IntegrityError(f"{p}: duplicate vocabulary token {token!r}")
        seen.add(token)
    room = config.vocab_size - len(RESERVED_TOKENS)
    if len(vocab) > room:
        raise IntegrityError(f"{p}: vocabulary has {len(vocab)} tokens, but config "
                             f"vocab_size {config.vocab_size} holds {room}")
    shapes = {name: shape for name, shape, _ in param_spec(config)}
    arrays = {}
    for entry in header["arrays"]:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in shapes:
            raise IntegrityError(f"{p}: unexpected array {name!r}")
        shape, offset = shapes[name], entry.get("offset")
        if entry.get("shape") != list(shape):
            raise IntegrityError(f"{p}: array {name!r} shape {entry.get('shape')} "
                                 f"!= config shape {list(shape)}")
        if type(offset) is not int or offset < 0:
            raise IntegrityError(f"{p}: array {name!r} offset {offset!r} is invalid")
        end = offset + 8 * int(np.prod(shape, dtype=np.int64))
        if end > body_size:
            raise IntegrityError(f"{p}: array {name!r} overruns body")
        arrays[name] = np.frombuffer(body[offset:end], dtype="<f8").reshape(shape)
    missing = set(shapes) - set(arrays)
    if missing:
        raise IntegrityError(f"{p}: missing arrays {sorted(missing)}")
    params = ModelParams((name, Tensor(arrays[name], requires_grad=True))
                         for name in shapes)
    return Checkpoint(config=config, params=params, stage=header["stage"],
                      history=header["history"], vocab_tokens=vocab,
                      version=version)
