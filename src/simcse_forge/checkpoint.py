"""Checkpoint serialization, format 2.

Binary layout (all integers little-endian):

    bytes 0..3    magic "SCF1"
    bytes 4..7    u32 header length
    header        UTF-8 JSON: format version, stage tag, encoder config,
                  vocab token list and training history
    body          every ``encoder.param_spec(config)`` array in spec order,
                  raw float64 little-endian
    trailer       u32 CRC32 of every byte before it

The parameter table is the layout: the header names no array, and the body
must hold exactly the spec's bytes. The JSON header is written with sorted
keys and fixed separators, so a checkpoint's bytes are a pure function of
its contents — two identically seeded runs produce identical files. A
format-1 file (an array manifest in the header, a CRC over the body only)
is refused, and so is every other mismatch, as an IntegrityError.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .data import RESERVED_TOKENS, read_input
from .dropout import DropoutPolicy
from .encoder import EncoderConfig, ModelParams, param_spec

MAGIC = b"SCF1"
FORMAT_VERSION = 2
STAGES = ("baseline", "unsup_simcse", "sup_simcse", "two_tier", "transfer")


class IntegrityError(ValueError):
    """Unreadable, corrupt, truncated, or incompatible checkpoint file."""


# Top-level header fields besides the version, with the JSON type each holds.
_HEADER_FIELDS = {"stage": str, "config": dict, "vocab": list, "history": list}


@dataclass
class Checkpoint:
    config: EncoderConfig
    params: ModelParams
    stage: str = "baseline"
    history: list[dict] = field(default_factory=list)
    vocab_tokens: list[str] = field(default_factory=list)

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
    header = {"version": FORMAT_VERSION, "stage": ckpt.stage,
              "config": config_to_dict(ckpt.config),
              "vocab": list(ckpt.vocab_tokens), "history": ckpt.history}
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(encoded)), encoded]
    for name, shape, _ in param_spec(ckpt.config):
        data = ckpt.params[name].data
        if data.shape != shape:
            raise ValueError(f"parameter {name!r} is {data.shape}, config says {shape}")
        parts.append(np.ascontiguousarray(data, dtype="<f8"))
    crc = 0
    with Path(path).open("wb") as fh:
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path) -> Checkpoint:
    blob = read_input(path, IntegrityError, "checkpoint", decode=False)
    p = repr(str(path))     # every message names the file, quoted
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
    body_end = len(blob) - 4
    (crc,) = struct.unpack_from("<I", blob, body_end)
    if zlib.crc32(memoryview(blob)[:body_end]) != crc:
        raise IntegrityError(f"{p}: checksum mismatch")
    for key, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(key), kind):
            raise IntegrityError(
                f"{p}: header field {key!r} missing or not a {kind.__name__}")
    if header["stage"] not in STAGES:
        raise IntegrityError(f"{p}: unknown stage {header['stage']!r}")
    if not all(isinstance(token, str) for token in header["vocab"]):
        raise IntegrityError(f"{p}: vocabulary holds a non-string token")

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
    spec = param_spec(config)
    expected = 8 * sum(math.prod(shape) for _, shape, _ in spec)
    if body_end - header_end != expected:
        raise IntegrityError(f"{p}: body holds {body_end - header_end} bytes, "
                             f"but the config's parameters take {expected}")
    params, offset = ModelParams(), header_end
    for name, shape, _ in spec:   # Tensor copies each array out of the file's bytes
        count = math.prod(shape)
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        params[name] = Tensor(data.reshape(shape), requires_grad=True)
        offset += 8 * count
    return Checkpoint(config=config, params=params, stage=header["stage"],
                      history=header["history"], vocab_tokens=vocab)
