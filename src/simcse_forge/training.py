"""Training procedures: single-task and multitask fine-tuning, the two
contrastive stages, the 2-tier pipeline, and transfer fine-tuning.

The four trainers share one optimizer loop, ``_fit``. It owns the rng, the
starting weights, the AdamW state, the step counter, the loss totals, the
best-dev selection and the stop on a non-finite loss or gradient norm; each
trainer adds only its input checks, its per-epoch batch source, its
per-batch loss and its dev evaluation.

Every trainer is deterministic given (seed, config, data): one SplitMix64
stream drives initialization, shuffling, and dropout in a fixed consumption
order, and evaluation passes never touch it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .checkpoint import Checkpoint, params_hash
from .data import (SYNTH_SCHEMAS, DataError, Vocab, make_batches, pad_batch,
                   sentences_of, tokenize)
from .encoder import (EncoderConfig, ModelParams, encode, init_from_spec,
                      init_params, param_spec)
from .evaluation import MetricReport, accuracy, pearson
from .objectives import (SIMILARITY_HEADS, bce_loss, ce_loss, mse_loss,
                         paraphrase_logit, sst_logits, sts_score,
                         sup_simcse_loss, unsup_simcse_loss)
from .optim import AdamWConfig, AdamWState, adamw_step, check_field_types
from .rng import Rng

logger = logging.getLogger("simcse_forge.training")

TASKS = ("sst", "paraphrase", "sts")


@dataclass
class TrainConfig(AdamWConfig):
    task: str = "sst"
    epochs: int = 10
    batch_size: int = 8
    dropout_p: float | None = None    # per-stage override of the encoder policy
    sts_head: str = "cos_sigmoid"
    sst_loss: str = "bce"             # bce against one-hot targets, or "ce"
    tau: float = 0.05
    seed: int = 0
    eval_every: int = 0               # extra dev evals every k steps; 0 = per epoch

    def __post_init__(self):
        super().__post_init__()
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.sts_head not in SIMILARITY_HEADS:
            raise ValueError(f"unknown sts head {self.sts_head!r}")
        if self.sst_loss not in ("bce", "ce"):
            raise ValueError("sst_loss must be 'bce' or 'ce'")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.dropout_p is not None and not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")


def _check_schema(kind: str, examples, which: str) -> None:
    """Every example must have the schema of ``kind``, a task or "nli"."""
    want = SYNTH_SCHEMAS[kind]
    for e in examples:
        if e.schema != want:
            raise ValueError(f"{which} dataset holds {e.schema} examples, "
                             f"but {kind!r} needs {want}")


def _require_train_set(train, what: str) -> None:
    """A trainer given no examples would take no step and return its
    starting weights as if trained."""
    if not train:
        raise DataError(f"{what}: train set is empty")


# -- task forward passes ------------------------------------------------------------

def task_loss(task: str, batch, params: ModelParams, config: EncoderConfig,
              train_config: TrainConfig, mode: str = "train", step: int = 0,
              rng: Rng | None = None):
    """Scalar training loss for one batch of the given task."""
    pooled = encode(batch.token_ids, batch.mask, params, config,
                    mode=mode, step=step, rng=rng, sequence=False).pooled
    if task == "sst":
        logits = sst_logits(pooled, params)
        if train_config.sst_loss == "bce":
            onehot = np.zeros((batch.size, 5))
            onehot[np.arange(batch.size), batch.target] = 1.0
            return bce_loss(logits, onehot)
        return ce_loss(logits, batch.target)
    pooled_b = encode(batch.b_ids, batch.b_mask, params, config,
                      mode=mode, step=step, rng=rng, sequence=False).pooled
    if task == "paraphrase":
        logit = paraphrase_logit(pooled, pooled_b, params, config.para_features)
        return bce_loss(logit, batch.target.astype(np.float64))
    scores = sts_score(pooled, pooled_b, train_config.sts_head, params)
    return mse_loss(scores, batch.target)


def predict(task: str, batch, params: ModelParams, config: EncoderConfig,
            train_config: TrainConfig):
    """Eval-mode predictions: class ids (sst), 0/1 (paraphrase), scores (sts)."""
    with ag.no_grad():
        pooled = encode(batch.token_ids, batch.mask, params, config,
                        sequence=False).pooled
        if task == "sst":
            return np.argmax(sst_logits(pooled, params).data, axis=1)
        pooled_b = encode(batch.b_ids, batch.b_mask, params, config,
                          sequence=False).pooled
        if task == "paraphrase":
            logit = paraphrase_logit(pooled, pooled_b, params,
                                     config.para_features)
            return (logit.data > 0.0).astype(np.int64)
        return sts_score(pooled, pooled_b, train_config.sts_head, params).data


def predict_dataset(task: str, params: ModelParams, config: EncoderConfig,
                    examples, train_config: TrainConfig) -> tuple[list, list]:
    """(predictions, gold targets) over a dataset; eval mode, insertion order."""
    _check_schema(task, examples, "eval")
    if not examples:
        raise DataError("cannot evaluate on an empty dataset")
    preds, golds = [], []
    for batch in make_batches(examples, train_config.batch_size):
        preds.extend(predict(task, batch, params, config, train_config).tolist())
        golds.extend(batch.target.tolist())
    return preds, golds


def task_metric(task: str, preds, golds) -> tuple[str, float]:
    """(metric name, value): Pearson r for sts, accuracy otherwise."""
    if task == "sts":
        return "pearson", pearson(preds, golds)
    return "accuracy", accuracy(preds, golds)


def evaluate_task(task: str, params: ModelParams, config: EncoderConfig,
                  examples, train_config: TrainConfig) -> tuple[str, float, int]:
    """(metric name, value, n) on a dataset; eval mode, insertion order."""
    preds, golds = predict_dataset(task, params, config, examples, train_config)
    return (*task_metric(task, preds, golds), len(preds))


def report_row(model: str, task: str, ck: Checkpoint, examples,
               train_config: TrainConfig) -> MetricReport:
    """One report row: ``ck`` scored on a dataset, tagged with its stage."""
    name, value, n = evaluate_task(task, ck.params, ck.config, examples,
                                   train_config)
    return MetricReport(model, task, name, value, n, stage=ck.stage)


# -- the training loop ---------------------------------------------------------------

def _fit(stage: str, train_config: TrainConfig, encoder_config: EncoderConfig,
         vocab: Vocab | None, params: ModelParams | None, epoch_batches,
         batch_loss, dev_fields, task: str | None = None,
         eval_every: int = 0) -> Checkpoint:
    """The one optimizer loop behind every trainer, from a copy of params
    (or init_params when None).

    epoch_batches(rng, step at epoch start) yields an epoch's batches;
    batch_loss(batch, params, config, step, rng) gives (loss, examples).
    History rows (per epoch, and every eval_every steps) take
    dev_fields(params, config). Returns the best-dev_metric weights, or the
    final ones when no row has a dev_metric.
    """
    config = encoder_config
    if train_config.dropout_p is not None:
        config = replace(config, dropout=replace(config.dropout, p=train_config.dropout_p))
    rng = Rng(train_config.seed)
    params = params.copy() if params is not None else init_params(config, rng)
    opt_state = AdamWState()
    tag = {"stage": stage} if task is None else {"stage": stage, "task": task}

    history: list[dict] = []
    best = (-np.inf, params.copy())     # (dev_metric, weights)

    def record(entry: dict) -> None:
        nonlocal best
        entry.update(dev_fields(params, config))
        history.append(entry)
        if entry.get("dev_metric", -np.inf) > best[0]:
            best = (entry["dev_metric"], params.copy())

    step = 0
    for epoch in range(train_config.epochs):
        total, seen = 0.0, 0
        for batch in epoch_batches(rng, step):
            params.zero_grads()
            loss, n = batch_loss(batch, params, config, step, rng)
            value = loss.item()
            if not math.isfinite(value):
                raise ValueError(f"{stage} stage: non-finite loss at step {step}")
            loss.backward()
            norm = adamw_step(params.named_parameters(), opt_state, train_config)
            if not math.isfinite(norm):
                raise ValueError(
                    f"{stage} stage: non-finite gradient norm at step {step}")
            total += value * n
            seen += n
            step += 1
            if eval_every and step % eval_every == 0:
                record({**tag, "epoch": epoch, "step": step})
        record({**tag, "epoch": epoch, "train_loss": total / max(seen, 1)})

    if any("dev_metric" in entry for entry in history):
        params = best[1]
    return Checkpoint(config=encoder_config, params=params, stage=stage,
                      history=history,
                      vocab_tokens=vocab.tokens() if vocab is not None else [])


def _task_batch_loss(train_config: TrainConfig):
    """Per-batch loss for (task, batch) items."""
    def loss(item, params, config, step, rng):
        task, batch = item
        return task_loss(task, batch, params, config, train_config,
                         mode="train", step=step, rng=rng), batch.size
    return loss


# -- single-task ---------------------------------------------------------------------

def train_single_task(train_config: TrainConfig, encoder_config: EncoderConfig,
                      vocab: Vocab | None, train_examples, dev_examples,
                      params: ModelParams | None = None,
                      stage: str = "baseline") -> Checkpoint:
    """Epoch loop with shuffled batches; returns the best-dev-epoch weights
    (final weights when no dev set is given)."""
    task = train_config.task
    _check_schema(task, train_examples, "train")
    if dev_examples:
        _check_schema(task, dev_examples, "dev")
    _require_train_set(train_examples, f"task {task!r}")

    def batches(rng, step):
        return ((task, b) for b in make_batches(
            train_examples, train_config.batch_size, rng, shuffle=True))

    def dev_fields(params, config):
        if not dev_examples:
            return {}
        name, value, _ = evaluate_task(task, params, config,
                                       dev_examples, train_config)
        return {"metric": name, "dev_metric": value}

    return _fit(stage, train_config, encoder_config, vocab, params, batches,
                _task_batch_loss(train_config), dev_fields, task=task,
                eval_every=train_config.eval_every if dev_examples else 0)


# -- multitask -------------------------------------------------------------------------

def train_multitask(train_config: TrainConfig, encoder_config: EncoderConfig,
                    vocab: Vocab | None, datasets: dict,
                    tasks: tuple[str, ...] = TASKS,
                    params: ModelParams | None = None) -> Checkpoint:
    """Round-robin multitask training over a shared encoder.

    datasets maps task -> (train_examples, dev_examples). Within an epoch
    the enabled tasks take turns batch-for-batch; exhausted streams cycle
    until the longest stream finishes. Best epoch = highest mean dev metric.
    """
    if not tasks:
        raise ValueError("at least one task must be enabled")
    for t in tasks:
        if t not in TASKS:
            raise ValueError(f"unknown task {t!r}")
        if t not in datasets:
            raise ValueError(f"missing dataset for task {t!r}")
        _check_schema(t, datasets[t][0], f"{t} train")
        _check_schema(t, datasets[t][1], f"{t} dev")
        _require_train_set(datasets[t][0], f"task {t!r} is enabled")

    def rounds(rng, step):
        streams = [make_batches(datasets[t][0], train_config.batch_size,
                                rng, shuffle=True) for t in tasks]
        for i in range(max(len(s) for s in streams)):
            for task, stream in zip(tasks, streams):
                yield task, stream[i % len(stream)]

    def dev_fields(params, config):
        fields = {}
        for task in tasks:
            name, value, _ = evaluate_task(task, params, config,
                                           datasets[task][1], train_config)
            fields[f"{task}_{name}"] = value
        fields["dev_metric"] = float(np.mean(list(fields.values())))
        return fields

    return _fit("baseline", train_config, encoder_config, vocab, params, rounds,
                _task_batch_loss(train_config), dev_fields, task="+".join(tasks),
                eval_every=train_config.eval_every)


# -- contrastive stages -------------------------------------------------------------------

def dropout_alignment(params: ModelParams, config: EncoderConfig, token_lists,
                      seed: int, batch_size: int = 32) -> float:
    """Mean cosine between two dropout-perturbed encodings of each sentence.

    A fixed seed pins the masks, so the number is comparable across calls
    with different params (the training-progress axis).
    """
    if not token_lists:
        raise ValueError("alignment needs at least one sentence")
    rng = Rng(seed)
    sims: list[float] = []
    with ag.no_grad():
        for start in range(0, len(token_lists), batch_size):
            ids, mask = pad_batch(token_lists[start:start + batch_size])
            a, b = (encode(ids, mask, params, config, mode="train", rng=rng,
                           sequence=False).pooled.data for _ in range(2))
            num = np.sum(a * b, axis=1)
            den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            sims.extend((num / den).tolist())
    return float(np.mean(sims))


def _alignment_fields(dev_token_lists, seed: int):
    def dev_fields(params, config):
        if not dev_token_lists:
            return {}
        return {"dev_alignment": dropout_alignment(params, config,
                                                   dev_token_lists, seed=seed)}
    return dev_fields


def train_unsup_simcse(train_config: TrainConfig, encoder_config: EncoderConfig,
                       vocab: Vocab | None, token_lists, params: ModelParams,
                       dev_token_lists=None) -> Checkpoint:
    """Contrastive fine-tuning with dropout as the augmentation: each batch is
    encoded twice in train mode and the two views are positives.

    Fine-tunes given weights (params required); returns the final weights.
    In-batch negatives need two sentences in a batch, so a batch_size below 2
    is a ValueError and a pool below 2 sentences a DataError: either would
    take no step and return the starting weights as if trained. A trailing
    batch of size 1 carries no negatives and is skipped with a warning. The
    first step whose two pooled views are bitwise equal logs one warning:
    dropout then drew no noise (standard p=0, curriculum at a rate of 0 such
    as step 0, or adaptive with every keep probability at 1.0).
    """
    if params is None:
        raise ValueError("unsupervised contrastive training fine-tunes "
                         "existing weights; params is required")
    size = train_config.batch_size
    if size < 2:
        raise ValueError(f"unsup_simcse needs batch_size >= 2 for in-batch "
                         f"negatives, got {size}")
    _require_train_set(token_lists, "unsup_simcse")
    if len(token_lists) < 2:
        raise DataError("unsup_simcse: in-batch negatives need at least 2 "
                        "sentences, got 1")
    warned = False

    def chunks(rng, step):
        order = list(token_lists)
        rng.shuffle(order)
        for start in range(0, len(order), size):
            chunk = order[start:start + size]
            if len(chunk) < 2:
                logger.warning("skipping size-1 batch at step %d "
                               "(in-batch negatives need N >= 2)", step)
                continue
            yield pad_batch(chunk)
            step += 1

    def loss(batch, params, config, step, rng):
        nonlocal warned
        ids, mask = batch
        h, h_plus = (encode(ids, mask, params, config, mode="train", step=step,
                            rng=rng, sequence=False).pooled for _ in range(2))
        if not warned and np.array_equal(h.data, h_plus.data):
            logger.warning("unsup_simcse step %d: the two %s dropout views are "
                           "identical and carry no contrastive signal",
                           step, config.dropout.kind)
            warned = True
        return unsup_simcse_loss(h, h_plus, train_config.tau), len(ids)

    return _fit("unsup_simcse", train_config, encoder_config, vocab, params,
                chunks, loss, _alignment_fields(dev_token_lists, train_config.seed))


def train_sup_simcse(train_config: TrainConfig, encoder_config: EncoderConfig,
                     vocab: Vocab | None, triplets, params: ModelParams,
                     dev_token_lists=None) -> Checkpoint:
    """Contrastive fine-tuning on (anchor, entailed, contradicting) triplets;
    the contradiction rows join the in-batch negatives as hard negatives.

    Size-1 batches are fine: the hard negative supplies the contrast.
    """
    if params is None:
        raise ValueError("supervised contrastive training fine-tunes "
                         "existing weights; params is required")
    _check_schema("nli", triplets, "triplet")
    _require_train_set(triplets, "sup_simcse")

    def batches(rng, step):
        return make_batches(triplets, train_config.batch_size, rng, shuffle=True)

    def loss(batch, params, config, step, rng):
        h, h_plus, h_minus = (
            encode(ids, mask, params, config, mode="train", step=step, rng=rng,
                   sequence=False).pooled
            for ids, mask in ((batch.token_ids, batch.mask), (batch.b_ids, batch.b_mask),
                              (batch.c_ids, batch.c_mask)))
        return sup_simcse_loss(h, h_plus, h_minus, train_config.tau), batch.size

    return _fit("sup_simcse", train_config, encoder_config, vocab, params,
                batches, loss, _alignment_fields(dev_token_lists, train_config.seed))


# -- 2-tier pipeline --------------------------------------------------------------------

@dataclass
class TwoTierConfig:
    """Per-stage hyperparameters for the sequential pipeline: task pre-training
    on scored pairs, unsupervised contrastive fine-tuning on the same
    sentences, then supervised contrastive fine-tuning on triplets."""

    stage1: TrainConfig = field(default_factory=lambda: TrainConfig(task="sts"))
    stage2: TrainConfig = field(default_factory=lambda: TrainConfig(
        task="sts", epochs=1, batch_size=64, lr=3e-5, dropout_p=0.1))
    stage3: TrainConfig = field(default_factory=lambda: TrainConfig(
        task="sts", epochs=5, batch_size=24, lr=5e-5, dropout_p=0.1))
    skip_unsup: bool = False
    extra_sts_finetune: bool = False

    def __post_init__(self):
        check_field_types(self)


def run_two_tier(tt: TwoTierConfig, encoder_config: EncoderConfig, vocab: Vocab,
                 sts_train, sts_dev, triplets
                 ) -> tuple[Checkpoint, list[MetricReport]]:
    """Full pipeline with an STS evaluation after every stage.

    Returns the final checkpoint (stage tag two_tier; history holds each
    stage's epochs plus per-stage summaries with weight hashes) and the
    stage-by-stage metric reports.
    """
    _check_schema("sts", sts_train, "sts train")
    _check_schema("sts", sts_dev, "sts dev")
    reports: list[MetricReport] = []
    history: list[dict] = []

    def stage(init_hash: str, ck: Checkpoint) -> ModelParams:
        """Record one finished stage; returns its weights for the next."""
        history.extend(ck.history)
        reports.append(report_row("two_tier", "sts", ck, sts_dev, tt.stage1))
        history.append({"stage": ck.stage, "summary": True,
                        "init_hash": init_hash, "final_hash": params_hash(ck.params),
                        "dev_pearson": reports[-1].value})
        return ck.params

    params = stage("", train_single_task(
        tt.stage1, encoder_config, vocab, sts_train, sts_dev, stage="baseline"))
    if not tt.skip_unsup:
        pool = [tokenize(s, vocab, encoder_config.max_seq_len)
                for s in sentences_of(sts_train)]
        params = stage(params_hash(params), train_unsup_simcse(
            tt.stage2, encoder_config, vocab, pool, params))
    params = stage(params_hash(params), train_sup_simcse(
        tt.stage3, encoder_config, vocab, triplets, params))
    if tt.extra_sts_finetune:
        params = stage(params_hash(params), train_single_task(
            tt.stage1, encoder_config, vocab, sts_train, sts_dev,
            params=params, stage="two_tier"))

    final = Checkpoint(config=encoder_config, params=params, stage="two_tier",
                       history=history, vocab_tokens=vocab.tokens())
    return final, reports


# -- transfer ---------------------------------------------------------------------------

_HEAD_PREFIXES = {"sst": ("heads.sst.",), "paraphrase": ("heads.para.",),
                  "sts": ("heads.sts.", "heads.cross_attn")}


def reinit_task_head(params: ModelParams, task: str, config: EncoderConfig,
                     rng: Rng) -> None:
    """Fresh draws for one task head, in place; the encoder is untouched.

    Every head weight is drawn, in table order, and only the task's own are
    kept, so a seed gives the same values as a fresh init of all heads.
    """
    if task not in _HEAD_PREFIXES:
        raise ValueError(f"unknown task {task!r}")
    heads = [entry for entry in param_spec(config) if entry[0].startswith("heads.")]
    for name, fresh in init_from_spec(heads, config, rng).items():
        if name.startswith(_HEAD_PREFIXES[task]):
            params[name].data = fresh.data


def transfer_finetune(ckpt: Checkpoint, target_task: str,
                      train_config: TrainConfig, train_examples,
                      dev_examples) -> Checkpoint:
    """Single-task fine-tuning from checkpoint weights with a fresh target head."""
    if train_config.task != target_task:
        train_config = replace(train_config, task=target_task)
    params = ckpt.params.copy()
    reinit_task_head(params, target_task, ckpt.config, Rng(train_config.seed))
    vocab = Vocab.from_tokens(ckpt.vocab_tokens) if ckpt.vocab_tokens else None
    return train_single_task(train_config, ckpt.config, vocab, train_examples,
                             dev_examples, params=params, stage="transfer")
