"""Run configuration: one JSON file, dotted CLI overrides, environment seed.

The file is a nested object with sections (encoder, dropout, optim, train,
data, two_tier) plus top-level seed/out. Every key is checked against the
section's fields, so typos fail loudly before any work starts. Every
section but data takes its keys and defaults from the runtime dataclass it
builds (EncoderConfig, DropoutPolicy, AdamWConfig, TrainConfig,
TwoTierConfig), so a default is set in one place. Overrides
use dotted paths (``--optim.lr 3e-5``); values parse as JSON with a string
fallback. Seed precedence: --seed flag > config file > SIMCSE_FORGE_SEED
environment variable > 0.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, make_dataclass

from .data import read_input
from .dropout import DropoutPolicy
from .encoder import EncoderConfig
from .optim import AdamWConfig, check_field_types
from .training import TrainConfig, TwoTierConfig

ENV_SEED = "SIMCSE_FORGE_SEED"


class ConfigError(ValueError):
    """Unparseable, unknown-key, or invalid-value configuration."""


def _section(name: str, runtime, drop=(), extra=()):
    """A JSON section class: ``extra`` (name, type, default) triples, then
    the fields and defaults of the ``runtime`` dataclass minus ``drop``.
    It checks no value itself; ``RunConfig.validate`` builds the runtime
    configs, which do."""
    specs = [*extra, *((f.name, f.type, f.default) for f in fields(runtime)
                       if f.name not in drop)]
    return make_dataclass(name, [(n, t, field(default=d)) for n, t, d in specs])


_STAGES = ("stage2", "stage3")
_STAGE_KEYS = ("epochs", "batch_size", "lr", "dropout_p")

EncoderSection = _section("EncoderSection", EncoderConfig,
                          drop=("vocab_size", "dropout"))
TrainSection = _section("TrainSection", TrainConfig, drop=(
    *(f.name for f in fields(AdamWConfig)), "dropout_p", "seed"))
# two_tier.stage{2,3}_<key> sets TwoTierConfig.stage{2,3}.<key>; stage 1 is
# the train section at task "sts".
TwoTierSection = _section(
    "TwoTierSection", TwoTierConfig, drop=("stage1", *_STAGES),
    extra=[(f"{stage}_{key}", {f.name: f.type for f in fields(TrainConfig)}[key],
            getattr(getattr(TwoTierConfig(), stage), key))
           for stage in _STAGES for key in _STAGE_KEYS])


@dataclass
class DataSettings:
    train: str | None = None
    dev: str | None = None
    sst_train: str | None = None
    sst_dev: str | None = None
    para_train: str | None = None
    para_dev: str | None = None
    sts_train: str | None = None
    sts_dev: str | None = None
    nli: str | None = None
    sentences: str | None = None
    vocab: str | None = None
    checkpoint: str | None = None
    min_count: int = 1


@dataclass
class RunConfig:
    seed: int = 0
    out: str | None = None
    encoder: EncoderSection = field(default_factory=EncoderSection)
    dropout: DropoutPolicy = field(default_factory=DropoutPolicy)
    optim: AdamWConfig = field(default_factory=AdamWConfig)
    train: TrainSection = field(default_factory=TrainSection)
    data: DataSettings = field(default_factory=DataSettings)
    two_tier: TwoTierSection = field(default_factory=TwoTierSection)

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab_size=vocab_size, dropout=self.dropout,
                             **asdict(self.encoder))

    def train_config(self, **kw) -> TrainConfig:
        return TrainConfig(**{**asdict(self.train), **asdict(self.optim),
                              "seed": self.seed, **kw})

    def two_tier_config(self) -> TwoTierConfig:
        tt = asdict(self.two_tier)
        stages = {}
        for stage in _STAGES:
            keys = {key: tt.pop(f"{stage}_{key}") for key in _STAGE_KEYS}
            try:
                stages[stage] = self.train_config(task="sts", **keys)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"'two_tier' {stage}: {exc}") from None
        return TwoTierConfig(stage1=self.train_config(task="sts"), **stages, **tt)

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> "RunConfig":
        """Force every derived config's own validation before any work."""
        try:
            check_field_types(self)
            check_field_types(self.data, prefix="data.")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for where, build in (("train", self.train_config),
                             ("two_tier", self.two_tier_config),
                             ("encoder", lambda: self.encoder_config(vocab_size=8))):
            try:
                build()
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"'{where}': {exc}") from None
        return self


_SECTIONS = {"encoder": EncoderSection, "dropout": DropoutPolicy,
             "optim": AdamWConfig, "train": TrainSection,
             "data": DataSettings, "two_tier": TwoTierSection}


def _build_section(cls, raw: dict, where: str):
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown key(s) in '{where}': {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{where}': {exc}") from None


def run_config_from_dict(d: dict) -> RunConfig:
    d = dict(d)
    parts = {}
    for name, cls in _SECTIONS.items():
        raw = d.pop(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"section '{name}' must be an object")
        parts[name] = _build_section(cls, raw, name)
    unknown = set(d) - {"seed", "out"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    return RunConfig(seed=d.get("seed", 0), out=d.get("out"), **parts)


def parse_override_value(raw: str):
    """JSON when it parses ('3e-5', 'true', 'null'), bare string otherwise."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(d: dict, overrides) -> None:
    """Set dotted paths into the raw config dict, creating sections as needed."""
    for path, raw in overrides:
        parts = path.split(".")
        if not all(parts):
            raise ConfigError(f"bad override path {path!r}")
        node = d
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-section")
        try:
            node[parts[-1]] = parse_override_value(raw)
        except RecursionError:
            raise ConfigError(f"override {path!r}: value nested too deeply "
                              f"to parse") from None


def load_run_config(path=None, overrides=(), seed_flag: int | None = None,
                    env=os.environ) -> RunConfig:
    if path is not None:
        text = read_input(path, ConfigError, "config file")
        try:
            d = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{str(path)!r}: invalid JSON ({exc})") from None
        if not isinstance(d, dict):
            raise ConfigError(f"{str(path)!r}: top level must be a JSON object")
    else:
        d = {}
    apply_overrides(d, overrides)
    config = run_config_from_dict(d)
    if seed_flag is not None:
        config.seed = seed_flag
    elif "seed" not in d and ENV_SEED in env:
        try:
            config.seed = int(env[ENV_SEED])
        except ValueError:
            raise ConfigError(
                f"{ENV_SEED} must be an integer, got {env[ENV_SEED]!r}") from None
    return config.validate()


def config_hash(config: RunConfig) -> str:
    """Eight hex chars identifying the full configuration (seed included)."""
    canonical = json.dumps(config.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
