import json

import pytest

from simcse_forge.config import (ConfigError, RunConfig, apply_overrides,
                                 config_hash, load_run_config,
                                 parse_override_value, run_config_from_dict)


def write_config(tmp_path, payload) -> str:
    p = tmp_path / "run.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_defaults_mirror_baseline_hypers():
    config = RunConfig()
    tc = config.train_config()
    assert (tc.lr, tc.weight_decay, tc.batch_size, tc.epochs) == (1e-5, 0.0, 8, 10)
    assert config.dropout.p == 0.3
    enc = config.encoder_config(vocab_size=100)
    assert (enc.hidden_dim, enc.num_layers, enc.num_heads) == (32, 4, 4)


def test_two_tier_stage_hypers():
    tt = RunConfig().two_tier_config()
    assert (tt.stage2.batch_size, tt.stage2.lr, tt.stage2.dropout_p) == (64, 3e-5, 0.1)
    assert (tt.stage3.batch_size, tt.stage3.lr, tt.stage3.epochs) == (24, 5e-5, 5)


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="top-level"):
        run_config_from_dict({"sede": 3})
    with pytest.raises(ConfigError, match="'optim'"):
        run_config_from_dict({"optim": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="'encoder'"):
        run_config_from_dict({"encoder": {"hiden_dim": 32}})
    with pytest.raises(ConfigError, match="object"):
        run_config_from_dict({"train": 7})
    # runtime fields the sections leave out
    for section, key in [("encoder", "vocab_size"), ("encoder", "dropout"),
                         ("train", "lr"), ("train", "seed"),
                         ("train", "dropout_p"), ("two_tier", "stage1_lr"),
                         ("two_tier", "stage2_tau")]:
        with pytest.raises(ConfigError, match=rf"'{section}': \['{key}'\]"):
            run_config_from_dict({section: {key: 1}})


def test_default_config_dict_is_pinned():
    # config_hash and run-directory names are functions of this dict
    assert RunConfig().to_dict() == {
        "seed": 0, "out": None,
        "encoder": {"hidden_dim": 32, "num_layers": 4, "num_heads": 4,
                    "ffn_dim": 128, "max_seq_len": 64, "pooling": "cls_tanh",
                    "para_features": "rich", "sts_head": "cos_sigmoid"},
        "dropout": {"kind": "standard", "p": 0.3, "gamma": 5.0, "alpha": 0.0,
                    "beta": 0.0, "total_steps": 1000},
        "optim": {"lr": 1e-05, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08,
                  "weight_decay": 0.0, "clip_norm": None},
        "train": {"task": "sst", "epochs": 10, "batch_size": 8,
                  "sst_loss": "bce", "tau": 0.05,
                  "eval_every": 0},
        "data": {"train": None, "dev": None, "sst_train": None,
                 "sst_dev": None, "para_train": None, "para_dev": None,
                 "sts_train": None, "sts_dev": None, "nli": None,
                 "sentences": None, "vocab": None, "checkpoint": None,
                 "min_count": 1},
        "two_tier": {"stage2_epochs": 1, "stage2_batch_size": 64,
                     "stage2_lr": 3e-05, "stage2_dropout_p": 0.1,
                     "stage3_epochs": 5, "stage3_batch_size": 24,
                     "stage3_lr": 5e-05, "stage3_dropout_p": 0.1,
                     "skip_unsup": False, "extra_sts_finetune": False}}
    assert config_hash(RunConfig()) == "3e7be736"


def test_load_from_file_with_sections(tmp_path):
    path = write_config(tmp_path, {
        "seed": 4,
        "train": {"task": "sts", "epochs": 2},
        "optim": {"lr": 3e-4},
        "dropout": {"kind": "curriculum", "p": 0.2, "gamma": 3.0,
                    "total_steps": 50},
    })
    config = load_run_config(path)
    assert config.seed == 4
    assert config.train_config().lr == 3e-4
    assert config.dropout.kind == "curriculum"


def test_bad_json_and_missing_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(str(p))
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(str(tmp_path / "absent.json"))
    (tmp_path / "arr.json").write_text("[1,2]")
    with pytest.raises(ConfigError, match="object"):
        load_run_config(str(tmp_path / "arr.json"))


def test_unreadable_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read") as info:
        load_run_config(str(tmp_path))
    assert str(tmp_path) in str(info.value) and "Errno" not in str(info.value)
    (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_run_config(str(tmp_path / "latin1.json"))


def test_deeply_nested_json_is_a_config_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(str(p))


def test_override_value_parsing():
    assert parse_override_value("3e-5") == 3e-5
    assert parse_override_value("8") == 8
    assert parse_override_value("true") is True
    assert parse_override_value("null") is None
    assert parse_override_value("cos_scale") == "cos_scale"


def test_dotted_overrides_reach_nested_sections():
    d = {"optim": {"lr": 1e-5}}
    apply_overrides(d, [("optim.lr", "3e-5"), ("train.task", "sts"),
                        ("two_tier.skip_unsup", "true")])
    config = run_config_from_dict(d)
    assert config.optim.lr == 3e-5
    assert config.train.task == "sts"
    assert config.two_tier.skip_unsup is True


def test_override_unknown_key_is_config_error():
    d = {}
    apply_overrides(d, [("optim.fancy", "1")])
    with pytest.raises(ConfigError, match="fancy"):
        run_config_from_dict(d)


def test_invalid_values_fail_at_load_time(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, {"optim": {"lr": "abc"}}))
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, {"train": {"task": "nli"}}))
    with pytest.raises(ConfigError):
        load_run_config(write_config(tmp_path, {"dropout": {"p": 1.5}}))
    with pytest.raises(ConfigError, match="seed"):
        load_run_config(write_config(tmp_path, {"seed": "twelve"}))


@pytest.mark.parametrize("section, values", [
    ("dropout", {"gamma": None}),
    ("dropout", {"total_steps": 2.5}),
    ("dropout", {"total_steps": {}}),
    ("dropout", {"p": False}),
    ("dropout", {"kind": "adaptive", "alpha": None}),
    ("encoder", {"num_layers": True}),
    ("train", {"epochs": 1.5}),
    ("train", {"batch_size": 2.5}),
    ("train", {"batch_size": True}),
    ("train", {"eval_every": "2"}),
    ("optim", {"lr": "x"}),
    ("optim", {"clip_norm": False}),
    ("two_tier", {"stage2_lr": "x"}),
    ("two_tier", {"stage2_lr": -1}),
    ("two_tier", {"stage3_epochs": 1.5}),
    ("two_tier", {"stage2_batch_size": True}),
    ("two_tier", {"skip_unsup": "no"}),
    ("two_tier", {"extra_sts_finetune": 1}),
    ("two_tier", {"stage2_dropout_p": False}),
    ("train", {"tau": True}),
    ("train", {"tau": None}),
])
def test_mistyped_section_values_fail_at_load_time(tmp_path, section, values):
    with pytest.raises(ConfigError, match=section):
        load_run_config(write_config(tmp_path, {section: values}))


@pytest.mark.parametrize("stage", ["stage2", "stage3"])
def test_a_bad_stage_value_names_its_stage(tmp_path, stage):
    with pytest.raises(ConfigError, match=f"^'two_tier' {stage}: lr must be positive$"):
        load_run_config(write_config(tmp_path, {"two_tier": {f"{stage}_lr": -1}}))


def test_seed_precedence(tmp_path):
    env = {"SIMCSE_FORGE_SEED": "99"}
    assert load_run_config(None, env=env).seed == 99
    path = write_config(tmp_path, {"seed": 5})
    assert load_run_config(path, env=env).seed == 5
    assert load_run_config(path, seed_flag=7, env=env).seed == 7
    # a dotted override counts as "set in the config"
    assert load_run_config(None, overrides=[("seed", "3")], env=env).seed == 3
    with pytest.raises(ConfigError, match="SIMCSE_FORGE_SEED"):
        load_run_config(None, env={"SIMCSE_FORGE_SEED": "lots"})


def test_config_hash_tracks_content():
    a = RunConfig()
    b = RunConfig(seed=1)
    assert config_hash(a) == config_hash(RunConfig())
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 8
