"""Command-line surface: train / eval / embed / synth / experiment.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem,
3 checkpoint integrity problem. Training writes a per-run directory
(timestamp + config hash under ./runs, or --out) holding checkpoint.ckpt,
metrics.tsv, vocab.txt, and manifest.json; everything except the manifest's
wall time is a pure function of (config, seed, data).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import autograd as ag
from .checkpoint import (Checkpoint, IntegrityError, load_checkpoint,
                         params_hash, save_checkpoint)
from .config import (ENV_SEED, ConfigError, RunConfig, config_hash,
                     load_run_config)
# make_batches is unused here but stays importable as cli.make_batches, a
# name perfbench/tracing.py patches.
from .data import (SYNTH_SCHEMAS, DataError, Vocab, examples_from_rows,  # noqa: F401
                   load_tsv, make_batches, pad_batch, read_rows, read_text,
                   sentences_of, synth_toy_corpus, texts_of_rows, tokenize,
                   write_tsv)
from .encoder import encode
from .evaluation import MetricReport, emit_report, similarity_heatmap
from .experiments import (EXPERIMENTS, add_experiment_args,
                          experiment_config_from_args)
from .rng import Rng
from .training import (TASKS, TrainConfig, dropout_alignment, evaluate_task,
                       predict_dataset, run_two_tier, task_metric,
                       train_multitask, train_single_task, train_sup_simcse,
                       train_unsup_simcse, transfer_finetune)

logger = logging.getLogger("simcse_forge.cli")

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTEGRITY = 0, 1, 2, 3

TRAIN_VARIANTS = ("single", "multitask", "unsup-simcse", "sup-simcse",
                  "two-tier", "transfer")
# task -> the data keys of its train and dev files in multitask runs
_MULTITASK_DATA = {"sst": ("sst_train", "sst_dev"),
                   "paraphrase": ("para_train", "para_dev"),
                   "sts": ("sts_train", "sts_dev")}


class UsageError(ValueError):
    """Bad invocation that argparse cannot catch (missing paths, etc.)."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simcse-forge",
        description="Miniature-BERT contrastive training toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training procedure")
    p_train.add_argument("variant", choices=TRAIN_VARIANTS)
    p_train.add_argument("--config", help="JSON run configuration")
    p_train.add_argument("--seed", type=int, default=None,
                         help="overrides the config file's seed")
    p_train.add_argument("--out", default=None,
                         help="output directory (default: runs/<stamp>-<hash>)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--task", required=True, choices=TASKS)
    p_eval.add_argument("--sts-head", default="cos_sigmoid")
    p_eval.add_argument("--batch-size", type=_positive_int, default=32)
    p_eval.add_argument("--out", default=None,
                        help="directory for heatmap.csv (sts only); default .")
    p_eval.set_defaults(func=cmd_eval)

    p_embed = sub.add_parser("embed", help="write pooled sentence embeddings")
    p_embed.add_argument("checkpoint")
    p_embed.add_argument("sentences", help="text file, one sentence per line")
    p_embed.add_argument("--out", default=None,
                         help="directory for embeddings.tsv; default .")
    p_embed.add_argument("--batch-size", type=_positive_int, default=32)
    p_embed.set_defaults(func=cmd_embed)

    p_synth = sub.add_parser("synth", help="write a synthetic toy corpus")
    p_synth.add_argument("kind", choices=sorted(SYNTH_SCHEMAS))
    p_synth.add_argument("size", type=int)
    p_synth.add_argument("out", help="output TSV path")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_xp = sub.add_parser("experiment", help="run a toy-scale comparison")
    p_xp.add_argument("name", choices=EXPERIMENTS)
    add_experiment_args(p_xp)
    p_xp.add_argument("--out", help="also write the report as TSV")
    p_xp.set_defaults(func=cmd_experiment)
    return parser


def parse_dotted_overrides(extras) -> list[tuple[str, str]]:
    """['--optim.lr', '3e-5', ...] -> [('optim.lr', '3e-5'), ...]."""
    overrides, i = [], 0
    while i < len(extras):
        flag = extras[i]
        if not (flag.startswith("--") and "." in flag):
            raise UsageError(f"unrecognized argument: {flag}")
        if "=" in flag:
            path, value = flag[2:].split("=", 1)
        else:
            if i + 1 >= len(extras):
                raise UsageError(f"override {flag} is missing a value")
            path, value = flag[2:], extras[i + 1]
            i += 1
        overrides.append((path, value))
        i += 1
    return overrides


# -- train -------------------------------------------------------------------------

def _require(config: RunConfig, name: str) -> str:
    value = getattr(config.data, name)
    if not value:
        raise UsageError(f"this variant needs data.{name} (set it in the "
                         f"config file or via --data.{name})")
    return value


def _read_sentence_file(path) -> list[str]:
    p = Path(path)
    if not p.exists():
        raise DataError(f"sentence file not found: {p}")
    return [line for line in read_text(p).splitlines() if line]


def _resolve_vocab(config: RunConfig, fallback_texts) -> Vocab:
    if config.data.vocab:
        return Vocab.load(config.data.vocab)
    return Vocab.build(fallback_texts, min_count=config.data.min_count)


def _load_source_checkpoint(config: RunConfig) -> Checkpoint:
    return load_checkpoint(_require(config, "checkpoint"))


def _load_dev(path, task: str, vocab: Vocab, max_len: int):
    """A dev set the run will score, checked before training starts: it
    needs one example, and two for sts, whose Pearson r needs two points."""
    dev = load_tsv(path, SYNTH_SCHEMAS[task], vocab, max_len)
    need = 2 if task == "sts" else 1
    if len(dev) < need:
        raise DataError(f"{path}: {task} dev set has {len(dev)} example(s), "
                        f"scoring it needs at least {need}")
    return dev


def _single_datasets(config: RunConfig, task: str,
                     source: Checkpoint | None = None):
    """Train and dev examples, tokenized with the source checkpoint's
    vocabulary and length when there is one, else the run config's."""
    schema = SYNTH_SCHEMAS[task]
    path = _require(config, "train")
    rows = read_rows(path, schema)
    if source is None:
        vocab = _resolve_vocab(config, texts_of_rows(rows, schema))
        max_len = config.encoder.max_seq_len
    else:
        vocab = Vocab.from_tokens(source.vocab_tokens)
        max_len = source.config.max_seq_len
    train = examples_from_rows(rows, schema, vocab, max_len, path=path)
    dev = _load_dev(config.data.dev, task, vocab, max_len) if config.data.dev else []
    return vocab, train, dev


def _final_report(model: str, task: str, ckpt, config: RunConfig, dev):
    if not dev:
        return []
    name, value, n = evaluate_task(task, ckpt.params, ckpt.config, dev,
                                   config.train_config(task=task))
    return [MetricReport(model, task, name, value, n, stage=ckpt.stage)]


def _train_single(config: RunConfig):
    task = config.train.task
    vocab, train, dev = _single_datasets(config, task)
    ck = train_single_task(config.train_config(), config.encoder_config(len(vocab)),
                           vocab, train, dev)
    return vocab, ck, _final_report("single", task, ck, config, dev)


def _train_multitask(config: RunConfig):
    paths, rows, texts = {}, {}, []
    for task in TASKS:
        schema = SYNTH_SCHEMAS[task]
        paths[task] = _require(config, _MULTITASK_DATA[task][0])
        rows[task] = read_rows(paths[task], schema)
        texts.extend(texts_of_rows(rows[task], schema))
    vocab = _resolve_vocab(config, texts)
    max_len = config.encoder.max_seq_len
    datasets = {}
    for task in TASKS:
        schema = SYNTH_SCHEMAS[task]
        train = examples_from_rows(rows[task], schema, vocab, max_len,
                                   path=paths[task])
        dev = _load_dev(_require(config, _MULTITASK_DATA[task][1]), task,
                        vocab, max_len)
        datasets[task] = (train, dev)
    ck = train_multitask(config.train_config(), config.encoder_config(len(vocab)),
                         vocab, datasets)
    reports = []
    for task in TASKS:
        reports += _final_report("multitask", task, ck, config, datasets[task][1])
    return vocab, ck, reports


def _alignment_report(model: str, ck, config: RunConfig, pool):
    value = dropout_alignment(ck.params, ck.config, pool, seed=config.seed)
    return [MetricReport(model, "simcse", "alignment", value, len(pool),
                         stage=ck.stage)]


def _train_unsup(config: RunConfig):
    source = _load_source_checkpoint(config)
    vocab = Vocab.from_tokens(source.vocab_tokens)
    lines = _read_sentence_file(_require(config, "sentences"))
    max_len = source.config.max_seq_len
    pool = [tokenize(s, vocab, max_len) for s in lines]
    tc = config.train_config(task="sts", dropout_p=0.1)
    ck = train_unsup_simcse(tc, source.config, vocab, pool, source.params)
    return vocab, ck, _alignment_report("unsup_simcse", ck, config, pool)


def _train_sup(config: RunConfig):
    source = _load_source_checkpoint(config)
    vocab = Vocab.from_tokens(source.vocab_tokens)
    max_len = source.config.max_seq_len
    triplets = load_tsv(_require(config, "nli"), "triplet", vocab, max_len)
    tc = config.train_config(task="sts", dropout_p=0.1)
    ck = train_sup_simcse(tc, source.config, vocab, triplets, source.params)
    pool = [tokenize(s, vocab, max_len) for s in sentences_of(triplets)]
    return vocab, ck, _alignment_report("sup_simcse", ck, config, pool)


def _train_two_tier(config: RunConfig):
    schema = SYNTH_SCHEMAS["sts"]
    sts_path = _require(config, "sts_train")
    sts_rows = read_rows(sts_path, schema)
    nli_path = _require(config, "nli")
    nli_rows = read_rows(nli_path, "triplet")
    vocab = _resolve_vocab(config, texts_of_rows(sts_rows, schema)
                           + texts_of_rows(nli_rows, "triplet"))
    max_len = config.encoder.max_seq_len
    sts_train = examples_from_rows(sts_rows, schema, vocab, max_len, path=sts_path)
    sts_dev = _load_dev(_require(config, "sts_dev"), "sts", vocab, max_len)
    triplets = examples_from_rows(nli_rows, "triplet", vocab, max_len, path=nli_path)
    ck, reports = run_two_tier(config.two_tier_config(),
                               config.encoder_config(len(vocab)), vocab,
                               sts_train, sts_dev, triplets)
    return vocab, ck, reports


def _train_transfer(config: RunConfig):
    source = _load_source_checkpoint(config)
    task = config.train.task
    vocab, train, dev = _single_datasets(config, task, source)
    ck = transfer_finetune(source, task, config.train_config(), train, dev)
    return vocab, ck, _final_report("transfer", task, ck, config, dev)


_DISPATCH = {"single": _train_single, "multitask": _train_multitask,
             "unsup-simcse": _train_unsup, "sup-simcse": _train_sup,
             "two-tier": _train_two_tier, "transfer": _train_transfer}


def _make_out_dir(config: RunConfig) -> Path:
    if config.out:
        out = Path(config.out)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = Path("runs") / f"{stamp}-{config_hash(config)}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args, overrides) -> int:
    config = load_run_config(args.config, overrides, seed_flag=args.seed)
    if args.out:
        config.out = args.out
    started = time.time()
    vocab, ckpt, reports = _DISPATCH[args.variant](config)
    out = _make_out_dir(config)
    save_checkpoint(ckpt, out / "checkpoint.ckpt")
    (out / "metrics.tsv").write_text(emit_report(reports), encoding="utf-8")
    vocab.save(out / "vocab.txt")
    manifest = {
        "command": f"train {args.variant}",
        "config": config.to_dict(),
        "seed": config.seed,
        "params_hash": params_hash(ckpt.params),
        "stage": ckpt.stage,
        "outputs": ["checkpoint.ckpt", "metrics.tsv", "vocab.txt"],
        "wall_time_s": round(time.time() - started, 3),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if reports:
        print(emit_report(reports, format="pretty"), end="")
    logger.info("run written to %s", out)
    return EXIT_OK


# -- eval / embed / synth --------------------------------------------------------------

def _checkpoint_vocab(ckpt: Checkpoint) -> Vocab:
    if not ckpt.vocab_tokens:
        raise UsageError("checkpoint carries no vocabulary")
    return Vocab.from_tokens(ckpt.vocab_tokens)


def cmd_eval(args, overrides) -> int:
    if overrides:
        raise UsageError(f"eval takes no overrides: {overrides[0][0]}")
    ckpt = load_checkpoint(args.checkpoint)
    vocab = _checkpoint_vocab(ckpt)
    task = args.task
    data = load_tsv(args.data, SYNTH_SCHEMAS[task], vocab,
                    ckpt.config.max_seq_len)
    tc = TrainConfig(task=task, batch_size=args.batch_size,
                     sts_head=args.sts_head)
    preds, golds = predict_dataset(task, ckpt.params, ckpt.config, data, tc)
    name, value = task_metric(task, preds, golds)
    report = MetricReport(ckpt.stage, task, name, value, len(preds), stage=ckpt.stage)
    print(emit_report([report], format="pretty"), end="")
    if task == "sts":
        _, csv_text = similarity_heatmap(golds, preds)
        out = Path(args.out) if args.out else Path(".")
        out.mkdir(parents=True, exist_ok=True)
        (out / "heatmap.csv").write_text(csv_text, encoding="utf-8")
        logger.info("heatmap written to %s", out / "heatmap.csv")
    return EXIT_OK


def cmd_embed(args, overrides) -> int:
    if overrides:
        raise UsageError(f"embed takes no overrides: {overrides[0][0]}")
    ckpt = load_checkpoint(args.checkpoint)
    vocab = _checkpoint_vocab(ckpt)
    lines = _read_sentence_file(args.sentences)
    if not lines:
        raise DataError(f"no sentences in {args.sentences}")
    token_lists = [tokenize(s, vocab, ckpt.config.max_seq_len) for s in lines]
    vectors = []
    with ag.no_grad():
        for start in range(0, len(token_lists), args.batch_size):
            ids, mask = pad_batch(token_lists[start:start + args.batch_size])
            vectors.append(encode(ids, mask, ckpt.params, ckpt.config).pooled.data)
    matrix = np.concatenate(vectors, axis=0)
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "embeddings.tsv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("sentence\t" + "\t".join(f"e{i}" for i in
                                          range(matrix.shape[1])) + "\n")
        for sentence, row in zip(lines, matrix):
            fh.write(sentence.replace("\t", " ") + "\t"
                     + "\t".join(repr(float(v)) for v in row) + "\n")
    logger.info("%d embeddings written to %s", len(lines), path)
    return EXIT_OK


def cmd_synth(args, overrides) -> int:
    if overrides:
        raise UsageError(f"synth takes no overrides: {overrides[0][0]}")
    if args.seed is not None:
        seed = args.seed
    else:
        seed = int(os.environ.get(ENV_SEED, "0"))
    rows = synth_toy_corpus(args.kind, args.size, Rng(seed))
    write_tsv(args.out, SYNTH_SCHEMAS[args.kind], rows)
    logger.info("%d rows written to %s", len(rows), args.out)
    return EXIT_OK


def cmd_experiment(args, overrides) -> int:
    if overrides:
        raise UsageError(f"experiment takes no overrides: {overrides[0][0]}")
    reports = EXPERIMENTS[args.name](experiment_config_from_args(args))
    print(emit_report(reports, format="pretty"), end="")
    if args.out:
        Path(args.out).write_text(emit_report(reports), encoding="utf-8")
    return EXIT_OK


# -- entry -------------------------------------------------------------------------

def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        overrides = parse_dotted_overrides(extras)
        return args.func(args, overrides)
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
