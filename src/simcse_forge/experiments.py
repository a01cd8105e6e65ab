"""Toy-scale experiment harnesses.

Each harness synthesizes its corpora, trains the relevant configurations,
and returns MetricReport rows in one of the four report shapes: single-task
vs multitask, the three dropout regimes, transfer vs no-transfer, and the
stage-by-stage 2-tier pipeline. Numbers are toy-scale by design; the point
is the comparison structure, not the absolute scores.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

from .data import (SYNTH_SCHEMAS, Vocab, examples_from_rows, synth_toy_corpus,
                   texts_of_rows)
from .dropout import DropoutPolicy
from .encoder import EncoderConfig, init_params
from .evaluation import MetricReport
from .optim import check_field_types
from .rng import Rng
from .training import (TASKS, TrainConfig, TwoTierConfig, report_row,
                       run_two_tier, sentence_pool, train_multitask,
                       train_single_task, train_unsup_simcse, transfer_finetune)

logger = logging.getLogger("simcse_forge.experiments")


@dataclass
class ExperimentConfig:
    seed: int = 0
    train_size: int = 32
    dev_size: int = 12
    epochs: int = 3
    batch_size: int = 8
    lr: float = 1e-3
    hidden_dim: int = 16
    num_layers: int = 1
    num_heads: int = 2
    ffn_dim: int = 32
    max_seq_len: int = 16
    dropout_p: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        # a negative size would slice its split from the end of the corpus
        for name in ("train_size", "dev_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # every harness scores STS Pearson on the dev split, which needs two points
        if self.dev_size < 2:
            raise ValueError(f"dev_size must be >= 2, got {self.dev_size}")
        # the derived configs check their own values before any corpus is drawn
        self.train_config("sst")
        self.encoder_config(vocab_size=8)

    def encoder_config(self, vocab_size: int,
                       dropout: DropoutPolicy | None = None) -> EncoderConfig:
        if dropout is None:
            dropout = DropoutPolicy(kind="standard", p=self.dropout_p)
        return EncoderConfig(vocab_size=vocab_size, hidden_dim=self.hidden_dim,
                             num_layers=self.num_layers, num_heads=self.num_heads,
                             ffn_dim=self.ffn_dim, max_seq_len=self.max_seq_len,
                             dropout=dropout)

    def train_config(self, task: str, **kw) -> TrainConfig:
        base = dict(task=task, epochs=self.epochs, batch_size=self.batch_size,
                    lr=self.lr, seed=self.seed)
        base.update(kw)
        return TrainConfig(**base)


def _task_datasets(xc: ExperimentConfig):
    """One (train, dev) split per task plus the shared vocabulary."""
    rows, texts = {}, []
    for offset, task in enumerate(TASKS):
        rows[task] = synth_toy_corpus(task, xc.train_size + xc.dev_size,
                                      Rng(xc.seed * 31 + offset))
        texts.extend(texts_of_rows(rows[task], SYNTH_SCHEMAS[task]))
    vocab = Vocab.build(texts)
    datasets = {}
    for task, r in rows.items():
        examples = examples_from_rows(r, SYNTH_SCHEMAS[task], vocab,
                                      xc.max_seq_len)
        datasets[task] = (examples[:xc.train_size], examples[xc.train_size:])
    return vocab, datasets


def run_single_vs_multitask(xc: ExperimentConfig) -> list[MetricReport]:
    """Per-task single-task models against one shared multitask model."""
    vocab, datasets = _task_datasets(xc)
    config = xc.encoder_config(len(vocab))
    reports = []
    for task in TASKS:
        tc = xc.train_config(task)
        ck = train_single_task(tc, config, vocab, *datasets[task])
        reports.append(report_row("single_task", task, ck, datasets[task][1],
                                  xc.batch_size))
    tc = xc.train_config("sst")
    ck = train_multitask(tc, config, vocab, datasets)
    return reports + [report_row("multitask", task, ck, datasets[task][1],
                                 xc.batch_size) for task in TASKS]


def run_dropout_comparison(xc: ExperimentConfig) -> list[MetricReport]:
    """One multitask model per dropout regime, same data and seed."""
    vocab, datasets = _task_datasets(xc)
    rounds = math.ceil(xc.train_size / xc.batch_size)
    total_steps = max(1, xc.epochs * rounds * len(TASKS))
    policies = {
        "standard": DropoutPolicy(kind="standard", p=xc.dropout_p),
        "curriculum": DropoutPolicy(kind="curriculum", p=xc.dropout_p,
                                    gamma=5.0, total_steps=total_steps),
        "adaptive": DropoutPolicy(kind="adaptive", alpha=1.0, beta=0.0),
    }
    tc = xc.train_config("sst")
    reports = []
    for kind, policy in policies.items():
        config = xc.encoder_config(len(vocab), dropout=policy)
        ck = train_multitask(tc, config, vocab, datasets)
        reports += [report_row(f"dropout_{kind}", task, ck, datasets[task][1],
                               xc.batch_size) for task in TASKS]
    return reports


def run_transfer_ablation(xc: ExperimentConfig) -> list[MetricReport]:
    """Fine-tuning from an unsupervised-contrastive checkpoint against
    training from scratch, on the two classification tasks."""
    vocab, datasets = _task_datasets(xc)
    config = xc.encoder_config(len(vocab))

    pool = sentence_pool([e for task in TASKS for e in datasets[task][0]])

    source = init_params(config, Rng(xc.seed))
    simcse_tc = xc.train_config("sts", batch_size=max(2, xc.batch_size))
    source_ck = train_unsup_simcse(simcse_tc, config, vocab, pool, source)

    reports = []
    for task in ("sst", "paraphrase"):
        tc = xc.train_config(task)
        scratch = train_single_task(tc, config, vocab, *datasets[task])
        reports.append(report_row("no_transfer", task, scratch,
                                  datasets[task][1], xc.batch_size))
        moved = transfer_finetune(source_ck, tc, *datasets[task])
        reports.append(report_row("with_transfer", task, moved,
                                  datasets[task][1], xc.batch_size))
    return reports


def run_two_tier_stages(xc: ExperimentConfig) -> list[MetricReport]:
    """The sequential pipeline, scored on STS after every stage."""
    sts_rows = synth_toy_corpus("sts", xc.train_size + xc.dev_size, Rng(xc.seed))
    nli_rows = synth_toy_corpus("nli", xc.train_size, Rng(xc.seed + 1))
    vocab = Vocab.build(texts_of_rows(sts_rows, "pair_scored")
                        + texts_of_rows(nli_rows, "triplet"))
    sts = examples_from_rows(sts_rows, "pair_scored", vocab, xc.max_seq_len)
    nli = examples_from_rows(nli_rows, "triplet", vocab, xc.max_seq_len)
    config = xc.encoder_config(len(vocab))
    tt = TwoTierConfig(
        stage1=xc.train_config("sts"),
        stage2=xc.train_config("sts", epochs=max(1, xc.epochs // 2),
                               dropout_p=0.1),
        stage3=xc.train_config("sts", epochs=max(1, xc.epochs // 2),
                               dropout_p=0.1))
    _, reports = run_two_tier(tt, config, vocab, sts[:xc.train_size],
                              sts[xc.train_size:], nli)
    return reports


# the names `simcse-forge experiment` takes
EXPERIMENTS = {"single-vs-multitask": run_single_vs_multitask,
               "dropout": run_dropout_comparison,
               "transfer": run_transfer_ablation,
               "two-tier-stages": run_two_tier_stages}


def add_experiment_args(parser) -> None:
    """Expose every ExperimentConfig field as a --dashed-flag. --seed
    defaults to None, which the CLI resolves as flag > SIMCSE_FORGE_SEED > 0."""
    for field in fields(ExperimentConfig):
        default = None if field.name == "seed" else field.default
        parser.add_argument("--" + field.name.replace("_", "-"),
                            type=type(field.default), default=default,
                            help=f"(default: {field.default})")


def experiment_config_from_args(args) -> ExperimentConfig:
    names = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items()
                               if k in names})
