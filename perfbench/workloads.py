"""The three benchmark workloads: seeded inputs, set-up, one closed-loop round,
and the correctness checks on each round's outputs.

Inputs come from ``random.Random(seed)`` and word lists of this file, never
from the package's own generators, so a change to simcse_forge cannot change
what the benchmark feeds it. The package sees only the generated TSVs,
sentence files and token lists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from simcse_forge import autograd, cli, training
from simcse_forge.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from simcse_forge.data import Vocab, pad_batch, tokenize
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, encode, init_params
from simcse_forge.rng import Rng

CONTENT_WORDS = (
    "dog", "cat", "bird", "horse", "sailor", "river", "garden", "market",
    "moon", "train", "letter", "child", "teacher", "storm", "bridge", "apple",
    "stone", "harbor", "candle", "meadow", "lantern", "violin", "thunder",
    "basket", "willow", "clock", "mirror", "ladder", "anchor", "ribbon",
    "saddle", "kettle", "hammer", "engine", "pillow", "barrel", "canyon",
    "feather", "magnet", "tunnel",
)
FILLER_WORDS = (
    "the", "a", "this", "that", "one", "of", "and", "near", "under", "over",
    "with", "without", "quietly", "slowly", "bright", "cold", "old", "new",
    "small", "large", "red", "green", "kept", "found", "carried", "watched",
    "dull", "good", "great", "plain", "fine", "awful", "warm", "smart",
)
WORDS = CONTENT_WORDS + FILLER_WORDS


def sentence(rng: random.Random, tokens: int) -> str:
    """A sentence that tokenizes to exactly `tokens` ids ([CLS] + words + [SEP])."""
    return " ".join(rng.choice(WORDS) for _ in range(tokens - 2))


@dataclass
class Round:
    """What one closed-loop round did and how long its parts took."""

    seconds: float
    items: int
    ops: list[tuple[int, int]]        # (start_ns, end_ns) of each step or request
    units: int                        # optimizer steps or requests made
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class StepClock:
    """Timestamps each return from ``training.adamw_step``; consecutive marks
    delimit one optimizer step."""

    def __init__(self):
        self.marks: list[int] = []
        self._original = None

    def install(self) -> None:
        original = self._original = training.adamw_step
        marks, clock = self.marks, time.perf_counter_ns

        def timed(*args, **kwargs):
            norm = original(*args, **kwargs)
            marks.append(clock())
            return norm

        training.adamw_step = timed

    def uninstall(self) -> None:
        training.adamw_step = self._original


def _finite_params(params) -> bool:
    return all(np.isfinite(t.data).all() for _, t in params.named_parameters())


class UnsupLong:
    """train_unsup_simcse at the default encoder size on long, varied sentences."""

    name = "unsup-long"
    trains = True
    batch_size = 32
    pool_size = 256          # one round = one trainer call = 8 steps
    warmup_size = 64         # 2 warm-up steps per set-up
    tau = 0.05

    def __init__(self, seed: int, workdir: Path, clock: StepClock):
        self.seed, self.workdir, self.clock = seed, workdir, clock

    def setup(self) -> None:
        rng = random.Random(self.seed)
        texts = [sentence(rng, rng.randint(7, 47)) for _ in range(self.pool_size)]
        self.vocab = Vocab.build(texts)
        self.config = EncoderConfig(vocab_size=len(self.vocab),
                                    dropout=DropoutPolicy(kind="standard", p=0.1))
        self.pool = [tokenize(t, self.vocab, self.config.max_seq_len) for t in texts]
        self.params = init_params(self.config, Rng(self.seed))
        warm = self._train(self.pool[:self.warmup_size], self.seed)
        if warm.problems:
            raise RuntimeError("warm-up failed: " + "; ".join(warm.problems))

    def _train(self, pool, seed: int) -> Round:
        tc = training.TrainConfig(task="sts", epochs=1, batch_size=self.batch_size,
                                  lr=3e-5, tau=self.tau, seed=seed)
        first = len(self.clock.marks)
        start = time.perf_counter_ns()
        ck = training.train_unsup_simcse(tc, self.config, self.vocab, pool,
                                         self.params)
        end = time.perf_counter_ns()
        marks = [start] + self.clock.marks[first:]
        steps = list(zip(marks[1:], marks[2:]))
        problems = []
        want_steps = math.ceil(len(pool) / self.batch_size)
        if len(marks) - 1 != want_steps:
            problems.append(f"{len(marks) - 1} optimizer steps, expected {want_steps}")
        # InfoNCE over cosines lies in [0, ln N + 2/tau]; any non-finite step
        # loss makes the epoch mean non-finite.
        loss = ck.history[0]["train_loss"] if ck.history else float("nan")
        if not 0.0 <= loss <= math.log(self.batch_size) + 2.0 / self.tau:
            problems.append(f"train loss {loss!r} outside [0, ln N + 2/tau]")
        if not _finite_params(ck.params):
            problems.append("non-finite parameters after training")
        return Round((end - start) / 1e9, len(pool), steps, len(marks) - 1, 1,
                     int(bool(problems)), problems)

    def round(self, index: int) -> Round:
        return self._train(self.pool, self.seed * 1000 + index)


class TwoTierToy:
    """`simcse-forge train two-tier` in-process at toy size on synthetic TSVs."""

    name = "two-tier-toy"
    trains = True
    n_sts, n_dev, n_nli = 128, 32, 128
    epochs = (1, 1, 3)       # stage 1 (STS), stage 2 (unsup), stage 3 (sup)

    def __init__(self, seed: int, workdir: Path, clock: StepClock):
        self.seed, self.workdir, self.clock = seed, workdir, clock

    def _sts_rows(self, rng, n, seen):
        rows = []
        while len(rows) < n:
            overlap = rng.randint(0, 5)
            a = rng.sample(CONTENT_WORDS, 5)
            b = a[:overlap] + rng.sample([w for w in CONTENT_WORDS if w not in a],
                                         5 - overlap)
            rng.shuffle(b)
            s1, s2 = " ".join(a), " ".join(b)
            if s1 == s2 or s1 in seen or s2 in seen:
                continue
            seen.update((s1, s2))
            rows.append((f"sts-{len(rows):04d}", s1, s2, repr(float(overlap))))
        return rows

    def _nli_rows(self, rng, n):
        rows = []
        while len(rows) < n:
            a = rng.sample(CONTENT_WORDS, 5)
            pos = rng.sample(a, 5)
            if pos == a:
                continue
            neg = rng.sample([w for w in CONTENT_WORDS if w not in a], 5)
            rows.append((" ".join(a), " ".join(pos), " ".join(neg)))
        return rows

    @staticmethod
    def _write(path: Path, header, rows) -> None:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        seen: set[str] = set()
        d = self.workdir
        sts_header = ("id", "sentence1", "sentence2", "similarity")
        self._write(d / "sts_train.tsv", sts_header,
                    self._sts_rows(rng, self.n_sts, seen))
        self._write(d / "sts_dev.tsv", sts_header,
                    self._sts_rows(rng, self.n_dev, seen))
        self._write(d / "nli.tsv", ("sent0", "sent1", "hard_neg"),
                    self._nli_rows(rng, self.n_nli))
        e1, e2, e3 = self.epochs
        config = {
            "seed": self.seed,
            "encoder": {"hidden_dim": 16, "num_layers": 1, "num_heads": 2,
                        "ffn_dim": 32, "max_seq_len": 16},
            "dropout": {"kind": "adaptive"},
            "optim": {"lr": 1e-3},
            "train": {"task": "sts", "epochs": e1, "batch_size": 8},
            "two_tier": {"stage2_epochs": e2, "stage2_batch_size": 16,
                         "stage2_lr": 1e-3, "stage3_epochs": e3,
                         "stage3_batch_size": 8, "stage3_lr": 1e-3},
            "data": {"sts_train": str(d / "sts_train.tsv"),
                     "sts_dev": str(d / "sts_dev.tsv"), "nli": str(d / "nli.tsv")},
        }
        (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
        # examples the three stages train on: pairs, distinct sentences, triplets
        self.items = e1 * self.n_sts + e2 * 2 * self.n_sts + e3 * self.n_nli
        self.reference = None
        warm = self.round(-1)
        if warm.problems:
            raise RuntimeError("warm-up failed: " + "; ".join(warm.problems))
        self._check_reference()

    def _check_reference(self) -> None:
        ck = load_checkpoint(self.workdir / "out" / "checkpoint.ckpt")
        losses = [h["train_loss"] for h in ck.history if "train_loss" in h]
        if len(losses) != sum(self.epochs) or not all(map(math.isfinite, losses)):
            raise RuntimeError(f"warm-up train losses {losses}")
        if not _finite_params(ck.params):
            raise RuntimeError("warm-up checkpoint has non-finite parameters")
        lines = self.reference[1].decode("utf-8").splitlines()
        values = [float(line.split("\t")[3]) for line in lines[1:]]
        if len(values) != 3 or not all(map(math.isfinite, values)):
            raise RuntimeError(f"warm-up metrics.tsv rows {lines[1:]}")

    def round(self, index: int) -> Round:
        out = self.workdir / "out"
        argv = ["train", "two-tier", "--config", str(self.workdir / "config.json"),
                "--out", str(out)]
        first = len(self.clock.marks)
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        end = time.perf_counter_ns()
        marks = self.clock.marks[first:]
        steps = list(zip(marks, marks[1:]))
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            produced = ((out / "checkpoint.ckpt").read_bytes(),
                        (out / "metrics.tsv").read_bytes())
            if self.reference is None:
                self.reference = produced
            elif produced != self.reference:
                problems.append("checkpoint or metrics differ from the first run")
        return Round((end - start) / 1e9, self.items, steps, len(marks), 1,
                     int(bool(problems)), problems)


class EmbedCli:
    """Repeated `simcse-forge embed` requests against a default-size checkpoint."""

    name = "embed-cli"
    trains = False
    # Each size in 4/16/64/256 once, and 64 a second time, so neither the
    # median nor the 90th percentile falls on the boundary between two sizes.
    sizes = (4, 16, 64, 256, 64)
    batch_size = 32

    def __init__(self, seed: int, workdir: Path, clock: StepClock):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        rng = random.Random(self.seed)
        requests = [[sentence(rng, rng.randint(7, 42)) for _ in range(n)]
                    for n in self.sizes]
        vocab = Vocab.build(s for lines in requests for s in lines)
        config = EncoderConfig(vocab_size=len(vocab))
        params = init_params(config, Rng(self.seed))
        self.checkpoint = self.workdir / "model.ckpt"
        save_checkpoint(Checkpoint(config=config, params=params,
                                   vocab_tokens=vocab.tokens()), self.checkpoint)
        self.requests = []
        for i, lines in enumerate(requests):
            path = self.workdir / f"request{i}.txt"
            path.write_text("".join(s + "\n" for s in lines), encoding="utf-8")
            self.requests.append((path, lines, self._direct(lines, vocab, config,
                                                            params)))
        warm = self.round(-1)
        if warm.problems:
            raise RuntimeError("warm-up failed: " + "; ".join(warm.problems))

    def _direct(self, lines, vocab, config, params) -> np.ndarray:
        """The embeddings a direct eval-mode encode gives, in the CLI's batches."""
        tokens = [tokenize(s, vocab, config.max_seq_len) for s in lines]
        out = []
        with autograd.no_grad():
            for i in range(0, len(tokens), self.batch_size):
                ids, mask = pad_batch(tokens[i:i + self.batch_size])
                out.append(encode(ids, mask, params, config).pooled.data)
        return np.concatenate(out)

    @staticmethod
    def _check(path: Path, lines, expected) -> str | None:
        rows = path.read_text(encoding="utf-8").splitlines()
        if len(rows) != len(lines) + 1:
            return f"{len(rows) - 1} rows for {len(lines)} sentences"
        width = expected.shape[1]
        if rows[0].split("\t") != ["sentence"] + [f"e{i}" for i in range(width)]:
            return "bad header"
        for line, row, want in zip(lines, rows[1:], expected):
            cells = row.split("\t")
            if cells[0] != line or len(cells) != width + 1:
                return f"row for {line!r} is malformed"
            if not np.array_equal(np.array(cells[1:], dtype=np.float64), want):
                return f"embedding of {line!r} differs from a direct encode"
        return None

    def round(self, index: int) -> Round:
        out = self.workdir / "out"
        ops, problems, items = [], [], 0
        for path, lines, expected in self.requests:
            argv = ["embed", str(self.checkpoint), str(path), "--out", str(out),
                    "--batch-size", str(self.batch_size)]
            t0 = time.perf_counter_ns()
            code = cli.main(argv)
            ops.append((t0, time.perf_counter_ns()))
            items += len(lines)
            problem = (f"exit code {code}" if code != 0
                       else self._check(out / "embeddings.tsv", lines, expected))
            if problem:
                problems.append(f"{path.name}: {problem}")
        busy = sum(b - a for a, b in ops)
        return Round(busy / 1e9, items, ops, len(ops), len(ops), len(problems),
                     problems)


WORKLOADS = {w.name: w for w in (UnsupLong, TwoTierToy, EmbedCli)}
