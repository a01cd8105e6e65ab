"""Command-line surface: train / eval / embed / synth / experiment.

Exit codes: 0 success, 1 usage, configuration or unwritable output problem,
2 data problem, 3 checkpoint integrity problem. Every command checks where
it writes before any work (``_output``). Training writes a per-run directory
(timestamp + config hash under ./runs, or --out) holding checkpoint.ckpt,
metrics.tsv, vocab.txt, and manifest.json; everything except the manifest's
wall time is a pure function of (config, seed, data).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import autograd as ag
from .checkpoint import (Checkpoint, IntegrityError, load_checkpoint,
                         params_hash, save_checkpoint)
from .config import RunConfig, config_hash, load_run_config
# make_batches and evaluate_task are unused here but stay importable as
# cli.make_batches and cli.evaluate_task, names perfbench/tracing.py patches.
from .data import (SYNTH_SCHEMAS, DataError, Vocab,  # noqa: F401
                   distinct_token_lists, examples_from_rows, load_tsv,
                   make_batches, pad_batch, read_rows, read_text,
                   synth_toy_corpus, texts_of_rows, tokenize, write_tsv)
from .encoder import encode
from .evaluation import MetricReport, emit_report, similarity_heatmap
from .experiments import (EXPERIMENTS, add_experiment_args,
                          experiment_config_from_args)
from .rng import Rng
from .training import (TASKS, check_scored_set,  # noqa: F401
                       dropout_alignment, evaluate_task, predict_dataset,
                       report_row, run_two_tier, sentence_pool,
                       stage_encoder_config, task_metric, train_multitask,
                       train_single_task, train_sup_simcse, train_unsup_simcse,
                       transfer_finetune)

logger = logging.getLogger("simcse_forge.cli")

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTEGRITY = 0, 1, 2, 3

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
    p_train.add_argument("variant", choices=_DISPATCH)
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


def _output(path, *names: str):
    """Check the file ``path``, or the files ``names`` in directory ``path``,
    before any work: a UsageError names a non-directory on the way, a
    target of the wrong kind or a path holding a NUL byte. ``place(name)``
    (``place()`` for ``path``) creates a file's parents as it is written, so
    a refused run makes none."""
    path = Path(path)
    for target in [path / name for name in names] or [path]:
        if "\0" in str(target):
            raise UsageError(f"cannot write {str(target)!r}: embedded null byte")
        for part in reversed(target.parents):
            if part.exists() and not part.is_dir():
                raise UsageError(f"cannot write {str(part)!r}: it is not a directory")
        if target.is_dir():
            raise UsageError(f"cannot write {str(target)!r}: it is a directory")

    def place(name: str = "") -> Path:
        file = path / name
        file.parent.mkdir(parents=True, exist_ok=True)
        return file
    return place


# -- train -------------------------------------------------------------------------

def _require(config: RunConfig, name: str) -> str:
    value = getattr(config.data, name)
    if not value:
        raise UsageError(f"this variant needs data.{name} (set it in the "
                         f"config file or via --data.{name})")
    return value


def _read_sentence_file(path) -> list[str]:
    """The non-empty lines of a text file; only \\n, \\r\\n and \\r end a line."""
    text = read_text(path).replace("\r\n", "\n").replace("\r", "\n")
    return [line for line in text.split("\n") if line]


def _load_scored(path, task: str, vocab: Vocab, max_len: int):
    """A dataset the command will score, checked before any work
    (``check_scored_set``)."""
    examples = load_tsv(path, SYNTH_SCHEMAS[task], vocab, max_len)
    check_scored_set(task, examples, repr(str(path)))
    return examples


def _load(config: RunConfig, train, dev=(), source: Checkpoint | None = None):
    """The vocabulary and the examples of a train run, by data key.

    ``train`` lists (data key, schema) pairs for the train files; a schema
    of None marks a sentence file, which gives token lists. ``dev`` lists
    (data key, task) pairs for the dev sets the run scores. A sentence
    file's lines that tokenize alike are kept once, where first seen
    (``distinct_token_lists``). With a source checkpoint, its vocabulary (it
    must carry one) and max_seq_len are used; without, data.vocab or a
    vocabulary built from the train files' sentences, at the run config's
    max_seq_len.
    """
    paths = {key: _require(config, key) for key, _ in (*train, *dev)}
    rows = {key: read_rows(paths[key], schema) if schema
            else _read_sentence_file(paths[key]) for key, schema in train}
    max_len = config.encoder.max_seq_len
    if source is not None:
        vocab, max_len = _checkpoint_vocab(source), source.config.max_seq_len
    elif config.data.vocab:
        vocab = Vocab.load(config.data.vocab)
    else:
        vocab = Vocab.build([text for key, schema in train for text in (
            texts_of_rows(rows[key], schema) if schema else rows[key])],
            min_count=config.data.min_count)
    examples = {key: examples_from_rows(rows[key], schema, vocab, max_len) if schema
                else distinct_token_lists(tokenize(s, vocab, max_len) for s in rows[key])
                for key, schema in train}
    for key, task in dev:
        examples[key] = _load_scored(paths[key], task, vocab, max_len)
    return vocab, examples


def _final_report(model: str, task: str, ckpt, config: RunConfig, dev):
    if not dev:
        return []
    return [report_row(model, task, ckpt, dev, config.train.batch_size)]


def _train_single(config: RunConfig):
    task = config.train.task
    vocab, data = _load(config, [("train", SYNTH_SCHEMAS[task])],
                        [("dev", task)] if config.data.dev else [])
    dev = data.get("dev", [])
    ck = train_single_task(config.train_config(), config.encoder_config(len(vocab)),
                           vocab, data["train"], dev)
    return vocab, ck, _final_report("single", task, ck, config, dev)


def _train_multitask(config: RunConfig):
    vocab, data = _load(
        config, [(_MULTITASK_DATA[t][0], SYNTH_SCHEMAS[t]) for t in TASKS],
        [(_MULTITASK_DATA[t][1], t) for t in TASKS])
    datasets = {t: tuple(data[key] for key in _MULTITASK_DATA[t]) for t in TASKS}
    ck = train_multitask(config.train_config(), config.encoder_config(len(vocab)),
                         vocab, datasets)
    reports = []
    for task in TASKS:
        reports += _final_report("multitask", task, ck, config, datasets[task][1])
    return vocab, ck, reports


def _train_contrastive(key: str, trainer, config: RunConfig):
    """A contrastive stage from data.checkpoint at dropout p 0.1 on data.<key>,
    reported as the alignment of its sentences under the stage's dropout."""
    source = load_checkpoint(_require(config, "checkpoint"))
    schema = SYNTH_SCHEMAS.get(key)     # None: a sentence file
    vocab, data = _load(config, [(key, schema)], source=source)
    tc = config.train_config(task="sts", dropout_p=0.1)
    ck = trainer(tc, source.config, vocab, data[key], source.params)
    pool = sentence_pool(data[key]) if schema else data[key]
    value = dropout_alignment(ck.params, stage_encoder_config(ck.config, tc),
                              pool, seed=config.seed)
    return vocab, ck, [MetricReport(ck.stage, "simcse", "alignment", value,
                                    len(pool), stage=ck.stage)]


def _train_two_tier(config: RunConfig):
    vocab, data = _load(config, [("sts_train", SYNTH_SCHEMAS["sts"]),
                                 ("nli", "triplet")], [("sts_dev", "sts")])
    ck, reports = run_two_tier(config.two_tier_config(),
                               config.encoder_config(len(vocab)), vocab,
                               data["sts_train"], data["sts_dev"], data["nli"])
    return vocab, ck, reports


def _train_transfer(config: RunConfig):
    source = load_checkpoint(_require(config, "checkpoint"))
    task = config.train.task
    vocab, data = _load(config, [("train", SYNTH_SCHEMAS[task])],
                        [("dev", task)] if config.data.dev else [], source)
    dev = data.get("dev", [])
    ck = transfer_finetune(source, config.train_config(), data["train"], dev)
    return vocab, ck, _final_report("transfer", task, ck, config, dev)


_DISPATCH = {"single": _train_single, "multitask": _train_multitask,
             "unsup-simcse": partial(_train_contrastive, "sentences",
                                     train_unsup_simcse),
             "sup-simcse": partial(_train_contrastive, "nli", train_sup_simcse),
             "two-tier": _train_two_tier, "transfer": _train_transfer}


def cmd_train(args) -> int:
    if args.variant in ("unsup-simcse", "sup-simcse", "transfer"):
        for path, _ in args.overrides:   # their encoder is the checkpoint's
            section = path.split(".", 1)[0]
            if section in ("encoder", "dropout"):
                raise UsageError(f"--{path}: train {args.variant} starts from "
                                 f"data.checkpoint and does not read the "
                                 f"config's {section} section")
    config = load_run_config(args.config, args.overrides, seed_flag=args.seed)
    if args.out:
        config.out = args.out
    started = time.time()
    out = config.out or f"runs/{time.strftime('%Y%m%d-%H%M%S')}-{config_hash(config)}"
    outputs = ("checkpoint.ckpt", "metrics.tsv", "vocab.txt")
    place = _output(out, *outputs, "manifest.json")
    vocab, ckpt, reports = _DISPATCH[args.variant](config)
    save_checkpoint(ckpt, place("checkpoint.ckpt"))
    place("metrics.tsv").write_text(emit_report(reports), encoding="utf-8")
    vocab.save(place("vocab.txt"))
    manifest = {
        "command": f"train {args.variant}",
        "config": config.to_dict(),
        "seed": config.seed,
        "params_hash": params_hash(ckpt.params),
        "stage": ckpt.stage,
        "outputs": list(outputs),
        "wall_time_s": round(time.time() - started, 3),
    }
    place("manifest.json").write_text(
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


def cmd_eval(args) -> int:
    place = _output(args.out or ".", "heatmap.csv") if args.task == "sts" else None
    ckpt = load_checkpoint(args.checkpoint)
    vocab = _checkpoint_vocab(ckpt)
    task = args.task
    data = _load_scored(args.data, task, vocab, ckpt.config.max_seq_len)
    preds, golds = predict_dataset(task, ckpt.params, ckpt.config, data,
                                   args.batch_size)
    name, value = task_metric(task, preds, golds)
    report = MetricReport(ckpt.stage, task, name, value, len(preds), stage=ckpt.stage)
    print(emit_report([report], format="pretty"), end="")
    if task == "sts":
        _, csv_text = similarity_heatmap(golds, preds)
        path = place("heatmap.csv")
        path.write_text(csv_text, encoding="utf-8")
        logger.info("heatmap written to %s", path)
    return EXIT_OK


def cmd_embed(args) -> int:
    place = _output(args.out or ".", "embeddings.tsv")
    ckpt = load_checkpoint(args.checkpoint)
    vocab = _checkpoint_vocab(ckpt)
    lines = _read_sentence_file(args.sentences)
    if not lines:
        raise DataError(f"no sentences in {str(args.sentences)!r}")
    token_lists = [tokenize(s, vocab, ckpt.config.max_seq_len) for s in lines]
    vectors = []
    with ag.no_grad():
        for start in range(0, len(token_lists), args.batch_size):
            ids, mask = pad_batch(token_lists[start:start + args.batch_size])
            vectors.append(encode(ids, mask, ckpt.params, ckpt.config).pooled.data)
    matrix = np.concatenate(vectors, axis=0)
    path = place("embeddings.tsv")
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("sentence\t" + "\t".join(f"e{i}" for i in
                                          range(matrix.shape[1])) + "\n")
        for sentence, row in zip(lines, matrix):
            fh.write(sentence.replace("\t", " ") + "\t"
                     + "\t".join(map(repr, row.tolist())) + "\n")
    logger.info("%d embeddings written to %s", len(lines), path)
    return EXIT_OK


def cmd_synth(args) -> int:
    seed = load_run_config(None, seed_flag=args.seed).seed
    place = _output(args.out)
    rows = synth_toy_corpus(args.kind, args.size, Rng(seed))
    write_tsv(place(), SYNTH_SCHEMAS[args.kind], rows)
    logger.info("%d rows written to %s", len(rows), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    args.seed = load_run_config(None, seed_flag=args.seed).seed
    config = experiment_config_from_args(args)
    place = _output(args.out) if args.out else None
    reports = EXPERIMENTS[args.name](config)
    print(emit_report(reports, format="pretty"), end="")
    if place:
        place().write_text(emit_report(reports), encoding="utf-8")
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
        # dotted overrides set run-config values, which only train reads
        args.overrides = parse_dotted_overrides(extras)
        if args.overrides and args.command != "train":
            raise UsageError(f"{args.command} takes no overrides: "
                             f"{args.overrides[0][0]}")
        return args.func(args)
    except ValueError as exc:   # UsageError and ConfigError are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_INTEGRITY if isinstance(exc, IntegrityError) else
                EXIT_DATA if isinstance(exc, DataError) else EXIT_USAGE)
    except OSError as exc:      # input files fail as data or checkpoint errors
        where = f" {str(exc.filename)!r}" if exc.filename else ""
        print(f"error: cannot write{where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
