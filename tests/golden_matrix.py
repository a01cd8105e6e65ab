"""The golden run matrix: every ``train`` variant under each dropout regime,
and the four experiments, on synthetic data at a 2-layer d=16 encoder.

Prints one JSON object: the numpy and BLAS build, and per run the
params_hash, the sha256 of metrics.tsv, checkpoint.ckpt and the printed
report, and the per-tensor L2 norms of the trained weights (an experiment
has no weights; its report values stand in). ``test_golden.py`` compares
the object with ``golden.json``. After a change that moves trained bytes on
purpose, regenerate that file with

    python tests/golden_matrix.py --write

which prints, for each run whose bytes changed against the file it
replaces, the digest keys that moved (``standard/two-tier:
checkpoint_sha256``).

It pins one BLAS thread before numpy loads, since training bytes depend
on the BLAS thread count, and imports the package from this checkout's
``src``.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from simcse_forge.checkpoint import load_checkpoint  # noqa: E402
from simcse_forge.cli import main  # noqa: E402
from simcse_forge.evaluation import parse_report_tsv  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")

REGIMES = {"standard": {"kind": "standard", "p": 0.2},
           "curriculum": {"kind": "curriculum", "p": 0.2, "gamma": 5.0,
                          "total_steps": 12},
           "adaptive": {"kind": "adaptive", "alpha": 1.0, "beta": 1.0}}

# criterion 10's size
EXPERIMENT_ARGS = ["--seed", "0", "--train-size", "16", "--dev-size", "8",
                   "--epochs", "2"]


def blas_build() -> dict:
    """What the bytes depend on besides the code: numpy, its BLAS, and the
    kernel set a DYNAMIC_ARCH OpenBLAS picked for this CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                core = fn().decode()
                break
    return {"numpy": np.__version__, "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": core}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> str:
    """Run one command; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"golden matrix: {argv[:2]} exited {code}")
    return out.getvalue()


def _train_entry(out: Path, printed: str) -> dict:
    ck = load_checkpoint(out / "checkpoint.ckpt")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {"params_hash": manifest["params_hash"],
            "checkpoint_sha256": _sha((out / "checkpoint.ckpt").read_bytes()),
            "metrics_sha256": _sha((out / "metrics.tsv").read_bytes()),
            "report_sha256": _sha(printed.encode()),
            "norms": {name: float(np.linalg.norm(t.data))
                      for name, t in ck.params.named_parameters()}}


def _synth(tmp: Path) -> dict:
    """The synthetic data files, by data key."""
    files = {}
    for seed, (name, kind, size) in enumerate(
            [("sst_train", "sst", 12), ("sst_dev", "sst", 6),
             ("para_train", "paraphrase", 12), ("para_dev", "paraphrase", 6),
             ("sts_train", "sts", 12), ("sts_dev", "sts", 6),
             ("nli", "nli", 8)], start=1):
        files[name] = tmp / f"{name}.tsv"
        _cli(["synth", kind, size, files[name], "--seed", seed])
    lines = files["sts_train"].read_text(encoding="utf-8").splitlines()[1:]
    files["sentences"] = tmp / "sentences.txt"
    files["sentences"].write_text(
        "".join(f"{text}\n" for line in lines for text in line.split("\t")[1:3]),
        encoding="utf-8")
    return files


def run_matrix(tmp: Path) -> dict:
    files = _synth(tmp)
    split = {"sst": ("sst_train", "sst_dev"),
             "paraphrase": ("para_train", "para_dev"),
             "sts": ("sts_train", "sts_dev")}
    runs = {}
    for regime, dropout in REGIMES.items():
        config = tmp / f"{regime}.json"
        config.write_text(json.dumps({
            "seed": 3,
            "encoder": {"hidden_dim": 16, "num_layers": 2, "num_heads": 2,
                        "ffn_dim": 32, "max_seq_len": 16},
            "dropout": dropout,
            "optim": {"lr": 1e-3},
            "train": {"epochs": 2, "batch_size": 4, "eval_every": 3},
            "two_tier": {"stage2_epochs": 1, "stage2_batch_size": 4,
                         "stage2_lr": 1e-3, "stage3_epochs": 1,
                         "stage3_batch_size": 4, "stage3_lr": 1e-3},
            "data": {key: str(path) for key, path in files.items()},
        }), encoding="utf-8")

        def train(name, variant, *overrides):
            out = tmp / regime / name
            printed = _cli(["train", variant, "--config", config,
                            "--out", out, *overrides])
            runs[f"{regime}/{name}"] = _train_entry(out, printed)
            return out / "checkpoint.ckpt"

        single = {task: train(f"single-{task}", "single", "--train.task", task,
                              "--data.train", files[train_key],
                              "--data.dev", files[dev_key])
                  for task, (train_key, dev_key) in split.items()}
        train("multitask", "multitask")
        unsup = train("unsup-simcse", "unsup-simcse",
                      "--data.checkpoint", single["sts"])
        train("sup-simcse", "sup-simcse", "--data.checkpoint", single["sts"])
        train("transfer", "transfer", "--data.checkpoint", unsup,
              "--train.task", "sst", "--data.train", files["sst_train"],
              "--data.dev", files["sst_dev"])
        train("two-tier", "two-tier")
        train("two-tier-skip-extra", "two-tier", "--two_tier.skip_unsup", "true",
              "--two_tier.extra_sts_finetune", "true")

    for name in ("single-vs-multitask", "dropout", "transfer", "two-tier-stages"):
        tsv = tmp / f"experiment-{name}.tsv"
        printed = _cli(["experiment", name, *EXPERIMENT_ARGS, "--out", tsv])
        text = tsv.read_text(encoding="utf-8")
        runs[f"experiment/{name}"] = {
            "metrics_sha256": _sha(text.encode()),
            "report_sha256": _sha(printed.encode()),
            "values": [r.value for r in parse_report_tsv(text)]}
    return runs


def changed_runs(old: dict, new: dict) -> list[str]:
    """One "run: key, key" line per run of new whose digests differ from
    old's (every digest, for a run old lacks), naming the keys that moved,
    then one "run: gone" line per run old has and new lacks."""
    def digest(entry):
        return {k: v for k, v in entry.items() if k.endswith(("_hash", "_sha256"))}

    moved = []
    for name, entry in new["runs"].items():
        was, now = digest(old["runs"].get(name, {})), digest(entry)
        keys = sorted(k for k in was.keys() | now.keys() if was.get(k) != now.get(k))
        if keys:
            moved.append(f"{name}: {', '.join(keys)}")
    return moved + [f"{name}: gone" for name in old["runs"] if name not in new["runs"]]


def main_() -> None:
    logging.basicConfig(level=logging.ERROR)
    with tempfile.TemporaryDirectory() as tmp:
        result = {"build": blas_build(), "runs": run_matrix(Path(tmp))}
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if "--write" not in sys.argv[1:]:
        sys.stdout.write(text)
        return
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() \
        else {"runs": {}}
    moved = changed_runs(old, result)
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"{len(moved)} of {len(result['runs'])} runs changed bytes:")
    for name in moved:
        print(f"  {name}")


if __name__ == "__main__":
    main_()
