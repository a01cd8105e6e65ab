"""Training procedures: single-task and multitask fine-tuning, the two
contrastive stages, the 2-tier pipeline, and transfer fine-tuning.

Single-task training is multitask training over one task (``_train_tasks``),
and unsup and sup SimCSE share one contrastive body (``_train_contrastive``).
Every step makes one ``encode`` call: a batch stacks its sentence columns or
views (``data.Batch``), and ``encode_views`` splits the pooled rows back.
Both run one optimizer loop, ``_fit``: it owns the rng, the starting weights,
the AdamW state, the step counter, the loss totals, the best-dev selection
and the stop on a non-finite loss or gradient norm; each trainer adds only
its input checks, its per-epoch batch source, its per-batch loss and its dev
evaluation.

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
from .data import (SYNTH_SCHEMAS, Batch, DataError, Vocab, distinct_token_lists,
                   make_batches, pad_batch, sentences_of, tokenize)
from .encoder import (EncoderConfig, ModelParams, encode, init_from_spec,
                      init_params, param_spec)
from .evaluation import MetricReport, accuracy, pearson
from .objectives import (bce_loss, ce_loss, cosine, mse_loss,
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
    # per-stage override of the policy's rate p: standard and curriculum
    # dropout take it; adaptive dropout never reads p and ignores it (open)
    dropout_p: float | None = None
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


def check_scored_set(task: str, examples, where: str) -> None:
    """A dataset to score needs one example; an sts set needs two with
    distinct gold scores, since Pearson r of a constant is undefined.
    ``where`` names the file or split in the DataError."""
    need = 2 if task == "sts" else 1
    if len(examples) < need:
        raise DataError(f"{where}: {'empty' if not examples else 'too small a'} "
                        f"dataset, it has {len(examples)} example(s) and "
                        f"scoring {task} needs at least {need}")
    if task == "sts" and len({e.target for e in examples}) < 2:
        raise DataError(f"{where}: every gold similarity is {examples[0].target!r}, "
                        f"and scoring sts (Pearson r) needs two distinct ones")


def _require_train_set(train, what: str) -> None:
    """A trainer given no examples would take no step and return its
    starting weights as if trained."""
    if not train:
        raise DataError(f"{what}: train set is empty")


# -- task forward passes ------------------------------------------------------------

def encode_views(batch: Batch, params: ModelParams, config: EncoderConfig,
                 mode: str = "eval", step: int = 0,
                 rng: Rng | None = None) -> list:
    """One ``encode`` of a batch's stacked views, its pooled rows split back
    into one [B, d] block per view, in view order.

    In train mode each dropout site draws one mask over the packed rows of
    every view, in view order. The blocks agree with separate passes per
    view to rounding, not bit for bit: a matmul over more rows need not
    round like one over a view's rows, and the attention buckets differ.
    """
    pooled = encode(batch.token_ids, batch.mask, params, config,
                    mode=mode, step=step, rng=rng).pooled
    if batch.views == 1:
        return [pooled]
    b, d = batch.size, pooled.shape[1]
    return [ag.gather_rows(pooled, slice(j * b, (j + 1) * b), (b, d))
            for j in range(batch.views)]


def task_loss(task: str, batch: Batch, params: ModelParams, config: EncoderConfig,
              train_config: TrainConfig, mode: str = "train", step: int = 0,
              rng: Rng | None = None):
    """Scalar training loss for one batch of the given task: one encode of
    its stacked sentence columns (``encode_views``)."""
    pooled = encode_views(batch, params, config, mode=mode, step=step, rng=rng)
    if task == "sst":
        logits = sst_logits(pooled[0], params)
        if train_config.sst_loss == "bce":
            onehot = np.zeros((batch.size, 5))
            onehot[np.arange(batch.size), batch.target] = 1.0
            return bce_loss(logits, onehot)
        return ce_loss(logits, batch.target)
    if task == "paraphrase":
        logit = paraphrase_logit(*pooled, params, config.para_features)
        return bce_loss(logit, batch.target.astype(np.float64))
    return mse_loss(sts_score(*pooled, config.sts_head, params), batch.target)


def predict(task: str, batch: Batch, params: ModelParams, config: EncoderConfig):
    """Eval-mode predictions: class ids (sst), 0/1 (paraphrase), scores (sts),
    from one encode of the batch's stacked sentence columns."""
    with ag.no_grad():
        pooled = encode_views(batch, params, config)
        if task == "sst":
            return np.argmax(sst_logits(pooled[0], params).data, axis=1)
        if task == "paraphrase":
            logit = paraphrase_logit(*pooled, params, config.para_features)
            return (logit.data > 0.0).astype(np.int64)
        return sts_score(*pooled, config.sts_head, params).data


def predict_dataset(task: str, params: ModelParams, config: EncoderConfig,
                    examples, batch_size: int) -> tuple[list, list]:
    """(predictions, gold targets) over a dataset; eval mode, insertion order."""
    _check_schema(task, examples, "eval")
    if not examples:
        raise DataError("cannot evaluate on an empty dataset")
    preds, golds = [], []
    for batch in make_batches(examples, batch_size):
        preds.extend(predict(task, batch, params, config).tolist())
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
    preds, golds = predict_dataset(task, params, config, examples,
                                   train_config.batch_size)
    return (*task_metric(task, preds, golds), len(preds))


def report_row(model: str, task: str, ck: Checkpoint, examples,
               batch_size: int) -> MetricReport:
    """One report row: ``ck`` scored on a dataset, tagged with its stage.
    It scores through ``evaluate_task``, the eval that perfbench's
    ``training.eval`` span wraps."""
    name, value, n = evaluate_task(task, ck.params, ck.config, examples,
                                   TrainConfig(batch_size=batch_size))
    return MetricReport(model, task, name, value, n, stage=ck.stage)


# -- the training loop ---------------------------------------------------------------

def stage_encoder_config(config: EncoderConfig, train_config: TrainConfig) -> EncoderConfig:
    """The encoder config a stage trains with: dropout_p overrides the rate."""
    p = train_config.dropout_p
    return config if p is None else replace(config, dropout=replace(config.dropout, p=p))


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
    config = stage_encoder_config(encoder_config, train_config)
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


# -- task training: single-task and multitask ------------------------------------

def _train_tasks(train_config: TrainConfig, encoder_config: EncoderConfig,
                 vocab: Vocab | None, datasets: dict, tasks: tuple[str, ...],
                 params: ModelParams | None, stage: str) -> Checkpoint:
    """Round-robin task training; datasets maps task -> (train, dev). Each
    epoch the tasks take turns batch-for-batch, shorter streams cycling until
    the longest ends. A history row holds ``<task>_<metric>`` per task with
    dev examples and their mean as ``dev_metric``; with none at all there is
    no dev_metric and no eval_every row, and the final weights are returned.
    """
    if not tasks:
        raise ValueError("at least one task must be enabled")
    for t in tasks:
        if t not in TASKS:
            raise ValueError(f"unknown task {t!r}")
        if t not in datasets:
            raise ValueError(f"missing dataset for task {t!r}")
        _check_schema(t, datasets[t][0], f"{t} train")
        _check_schema(t, datasets[t][1] or (), f"{t} dev")
        _require_train_set(datasets[t][0], f"task {t!r}")
    scored = [t for t in tasks if datasets[t][1]]
    for t in scored:
        check_scored_set(t, datasets[t][1], f"{t} dev split")

    def rounds(rng, step):
        streams = [make_batches(datasets[t][0], train_config.batch_size, rng)
                   for t in tasks]
        for i in range(max(len(s) for s in streams)):
            for task, stream in zip(tasks, streams):
                yield task, stream[i % len(stream)]

    def loss(item, params, config, step, rng):
        task, batch = item
        return task_loss(task, batch, params, config, train_config,
                         mode="train", step=step, rng=rng), batch.size

    def dev_fields(params, config):
        fields = {}
        for task in scored:
            name, value, _ = evaluate_task(task, params, config,
                                           datasets[task][1], train_config)
            fields[f"{task}_{name}"] = value
        if fields:
            fields["dev_metric"] = float(np.mean(list(fields.values())))
        return fields

    return _fit(stage, train_config, encoder_config, vocab, params, rounds,
                loss, dev_fields, task="+".join(tasks),
                eval_every=train_config.eval_every if scored else 0)


def train_single_task(train_config: TrainConfig, encoder_config: EncoderConfig,
                      vocab: Vocab | None, train_examples, dev_examples,
                      params: ModelParams | None = None,
                      stage: str = "baseline") -> Checkpoint:
    """Multitask training over the one task ``train_config.task``."""
    task = train_config.task
    return _train_tasks(train_config, encoder_config, vocab,
                        {task: (train_examples, dev_examples)}, (task,),
                        params, stage)


def train_multitask(train_config: TrainConfig, encoder_config: EncoderConfig,
                    vocab: Vocab | None, datasets: dict,
                    tasks: tuple[str, ...] = TASKS,
                    params: ModelParams | None = None) -> Checkpoint:
    """Round-robin multitask training; datasets maps task -> (train, dev)."""
    return _train_tasks(train_config, encoder_config, vocab, datasets, tasks,
                        params, "baseline")


# -- contrastive stages -------------------------------------------------------------------

# sentences per alignment encode; the masks a seed pins depend on it
_ALIGNMENT_BATCH = 32


def dropout_alignment(params: ModelParams, config: EncoderConfig, token_lists,
                      seed: int) -> float:
    """Mean cosine between two dropout-perturbed encodings of each sentence,
    drawn at the end of the policy's schedule (step total_steps, where a
    curriculum rate has ramped up; the other regimes ignore the step).

    Each chunk of sentences is stacked twice and encoded once in train mode
    (``encode_views``), so the two views' masks are one draw per site over
    the stacked rows. A fixed seed pins the masks, so the number is
    comparable across calls with different params (the training-progress
    axis).
    """
    if not token_lists:
        raise ValueError("alignment needs at least one sentence")
    rng = Rng(seed)
    step = config.dropout.total_steps
    sims: list[float] = []
    with ag.no_grad():
        for start in range(0, len(token_lists), _ALIGNMENT_BATCH):
            chunk = token_lists[start:start + _ALIGNMENT_BATCH]
            a, b = encode_views(Batch(*pad_batch(chunk * 2), views=2), params,
                                config, mode="train", step=step, rng=rng)
            sims.extend(cosine(a, b).data.tolist())
    return float(np.mean(sims))


def sentence_pool(examples, vocab: Vocab, max_len: int) -> list[list[int]]:
    """The examples' sentences, tokenized, each distinct token list once in
    first-seen order (``distinct_token_lists``)."""
    return distinct_token_lists(tokenize(s, vocab, max_len)
                                for s in sentences_of(examples))


def _train_contrastive(stage: str, train_config: TrainConfig,
                       encoder_config: EncoderConfig, vocab: Vocab | None,
                       params: ModelParams, epoch_batches, loss,
                       dev_token_lists) -> Checkpoint:
    """The one body behind both contrastive stages: fine-tunes given weights
    and returns the final ones. Each batch stacks its views of the same rows
    (a ``Batch``), encoded once in train mode (``encode_views``) for
    loss(*pooled views, tau). The first step whose first two pooled views
    are bitwise equal logs one warning: dropout drew no noise (standard p=0,
    curriculum at rate 0 as at step 0, or adaptive with every keep
    probability at 1.0). With dev_token_lists, each history row takes their
    dev_alignment.
    """
    if params is None:
        raise ValueError(f"{stage} fine-tunes existing weights; params is required")
    warned = False

    def batch_loss(batch, params, config, step, rng):
        nonlocal warned
        pooled = encode_views(batch, params, config, mode="train", step=step,
                              rng=rng)
        if not warned and np.array_equal(pooled[0].data, pooled[1].data):
            logger.warning("%s step %d: the first two %s dropout views are "
                           "identical and carry no contrastive signal",
                           stage, step, config.dropout.kind)
            warned = True
        return loss(*pooled, train_config.tau), batch.size

    def dev_fields(params, config):
        if not dev_token_lists:
            return {}
        return {"dev_alignment": dropout_alignment(
            params, config, dev_token_lists, seed=train_config.seed)}

    return _fit(stage, train_config, encoder_config, vocab, params,
                epoch_batches, batch_loss, dev_fields)


def train_unsup_simcse(train_config: TrainConfig, encoder_config: EncoderConfig,
                       vocab: Vocab | None, token_lists, params: ModelParams,
                       dev_token_lists=None) -> Checkpoint:
    """Contrastive fine-tuning of given weights, dropout as the augmentation:
    each batch is stacked twice and encoded once in train mode, and the two
    views of a sentence are positives.

    In-batch negatives need two sentences in a batch, so a batch_size below 2
    is a ValueError and a pool below 2 sentences a DataError: either would
    take no step and return the starting weights as if trained. A trailing
    batch of size 1 carries no negatives and is skipped with a warning.
    """
    size = train_config.batch_size
    if size < 2:
        raise ValueError(f"unsup_simcse needs batch_size >= 2 for in-batch "
                         f"negatives, got {size}")
    _require_train_set(token_lists, "unsup_simcse")
    if len(token_lists) < 2:
        raise DataError("unsup_simcse: in-batch negatives need at least 2 "
                        "sentences, got 1")

    def chunks(rng, step):
        order = list(token_lists)
        rng.shuffle(order)
        for start in range(0, len(order), size):
            chunk = order[start:start + size]
            if len(chunk) < 2:
                logger.warning("skipping size-1 batch at step %d "
                               "(in-batch negatives need N >= 2)", step)
                continue
            yield Batch(*pad_batch(chunk * 2), views=2)
            step += 1

    return _train_contrastive("unsup_simcse", train_config, encoder_config,
                              vocab, params, chunks, unsup_simcse_loss,
                              dev_token_lists)


def train_sup_simcse(train_config: TrainConfig, encoder_config: EncoderConfig,
                     vocab: Vocab | None, triplets, params: ModelParams,
                     dev_token_lists=None) -> Checkpoint:
    """Contrastive fine-tuning of given weights on (anchor, entailed, contradicting)
    triplets; the contradiction rows join the in-batch negatives as hard negatives.

    Size-1 batches are fine: the hard negative supplies the contrast.
    """
    _check_schema("nli", triplets, "triplet")
    _require_train_set(triplets, "sup_simcse")

    def batches(rng, step):
        return make_batches(triplets, train_config.batch_size, rng)

    return _train_contrastive("sup_simcse", train_config, encoder_config,
                              vocab, params, batches, sup_simcse_loss,
                              dev_token_lists)


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
        # checked here, not when stage 2 starts, so it fails before stage 1 trains
        if not self.skip_unsup and self.stage2.batch_size < 2:
            raise ValueError(f"stage2 batch_size must be >= 2 for in-batch "
                             f"negatives, got {self.stage2.batch_size}")


def run_two_tier(tt: TwoTierConfig, encoder_config: EncoderConfig, vocab: Vocab,
                 sts_train, sts_dev, triplets
                 ) -> tuple[Checkpoint, list[MetricReport]]:
    """Full pipeline with an STS evaluation after every stage.

    Returns the final checkpoint (stage tag two_tier; history holds each
    stage's epochs plus per-stage summaries with weight hashes) and the
    stage-by-stage metric reports.
    """
    reports: list[MetricReport] = []
    history: list[dict] = []

    def stage(init_hash: str, ck: Checkpoint) -> ModelParams:
        """Record one finished stage; returns its weights for the next."""
        history.extend(ck.history)
        reports.append(report_row("two_tier", "sts", ck, sts_dev,
                                  tt.stage1.batch_size))
        history.append({"stage": ck.stage, "summary": True,
                        "init_hash": init_hash, "final_hash": params_hash(ck.params),
                        "dev_pearson": reports[-1].value})
        return ck.params

    params = stage("", train_single_task(
        tt.stage1, encoder_config, vocab, sts_train, sts_dev, stage="baseline"))
    if not tt.skip_unsup:
        pool = sentence_pool(sts_train, vocab, encoder_config.max_seq_len)
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


def transfer_finetune(ckpt: Checkpoint, train_config: TrainConfig,
                      train_examples, dev_examples) -> Checkpoint:
    """Single-task fine-tuning from checkpoint weights with a fresh head for
    ``train_config.task``."""
    params = ckpt.params.copy()
    reinit_task_head(params, train_config.task, ckpt.config,
                     Rng(train_config.seed))
    vocab = Vocab.from_tokens(ckpt.vocab_tokens) if ckpt.vocab_tokens else None
    return train_single_task(train_config, ckpt.config, vocab, train_examples,
                             dev_examples, params=params, stage="transfer")
