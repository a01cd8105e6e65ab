"""Tokenization, vocabulary, TSV dataset I/O, batching, and toy-corpus synthesis.

Four dataset shapes, one per task family: classification (sentence, 5-way
label), labeled pairs (duplicate yes/no), scored pairs (0-5 similarity), and
triplets (sentence, paraphrase, contradiction). One table, ``SCHEMAS``,
holds each shape's columns, which of them are sentences, and the rule that
parses and range-checks its target; every row of every shape becomes one
record, ``Example`` (schema, guid, sentence texts, their token ids, target),
and ``SYNTH_SCHEMAS`` maps a task or corpus kind to its schema. Files are
UTF-8 TSV with a header row; embedded tabs, newlines and carriage returns
survive via csv quoting.

The synthetic corpora are built from small word pools so that every label is
a known function of the text (class = marker-word pool, similarity = content
-word overlap, triplet positive = reordering). Tests lean on that ground
truth instead of real SST/Quora/STS data.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .rng import Rng

PAD_ID, CLS_ID, SEP_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("[PAD]", "[CLS]", "[SEP]", "[UNK]")

_WORD_RE = re.compile(r"\w+|[^\w\s]")


class DataError(ValueError):
    """Malformed dataset file or row; message carries path/line context."""


def read_input(path, error: type[Exception], noun: str | None = None,
               decode: bool = True) -> str | bytes:
    """The whole of an input file: its UTF-8 text, line endings untranslated
    and one leading byte-order mark dropped, or with decode=False its bytes.
    A missing or unreadable file, a path holding a NUL byte or undecodable
    bytes raise ``error``, naming the file by ``noun`` ("checkpoint", say;
    without one, a missing file is a "file") and its quoted path, so a
    newline or NUL in the path keeps the error one printable line."""
    shown = repr(str(path))
    named = shown if noun is None else f"{noun} {shown}"
    try:
        blob = Path(path).read_bytes()
        return blob.decode("utf-8").removeprefix("\ufeff") if decode else blob
    except FileNotFoundError:
        raise error(f"{noun or 'file'} not found: {shown}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{shown}: not valid UTF-8 text (byte {exc.start})") from None
    except (OSError, ValueError) as exc:    # ValueError: a NUL byte in the path
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise error(f"cannot read {named}: {reason}") from None


def read_text(path) -> str:
    """The UTF-8 text of a data file (``read_input``), failing as a DataError."""
    return read_input(path, DataError)


def split_words(text: str) -> list[str]:
    """Lowercase and split on word/punctuation boundaries."""
    return _WORD_RE.findall(text.lower())


@dataclass
class Vocab:
    """Token-to-id map with four reserved ids below the corpus tokens."""

    token_to_id: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, sentences, min_count: int = 1) -> "Vocab":
        counts = Counter()
        for s in sentences:
            counts.update(split_words(s))
        # frequency order, ties alphabetical: deterministic ids
        tokens = sorted((t for t, c in counts.items() if c >= min_count),
                        key=lambda t: (-counts[t], t))
        return cls({t: i + len(RESERVED_TOKENS) for i, t in enumerate(tokens)})

    def __len__(self) -> int:
        return len(self.token_to_id) + len(RESERVED_TOKENS)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def tokens(self) -> list[str]:
        """Corpus tokens in id order (reserved ids excluded)."""
        return sorted(self.token_to_id, key=self.token_to_id.get)

    def save(self, path) -> None:
        Path(path).write_text("".join(t + "\n" for t in self.tokens()),
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        """One token per line; a repeated token is a DataError naming the
        file, the token and both of its lines."""
        tokens = read_text(path).splitlines()
        first: dict[str, int] = {}
        for line, token in enumerate(tokens, 1):
            if first.setdefault(token, line) != line:
                raise DataError(f"{str(path)!r}:{line}: vocab token {token!r} repeats "
                                f"line {first[token]}")
        return cls.from_tokens(tokens)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        vocab = cls({t: i + len(RESERVED_TOKENS) for i, t in enumerate(tokens)})
        if len(vocab.token_to_id) != len(tokens):
            raise DataError("vocab token list contains duplicates")
        return vocab


def tokenize(text: str, vocab: Vocab, max_len: int = 64) -> list[int]:
    """[CLS] word-ids [SEP], unknown words to [UNK], truncated to max_len."""
    ids = [vocab.id_of(w) for w in split_words(text)]
    return [CLS_ID] + ids[:max_len - 2] + [SEP_ID]


# -- examples -------------------------------------------------------------------

@dataclass
class Example:
    """One dataset row: its schema, guid (None for triplets), sentence texts
    with their token ids, and its parsed target (None for triplets)."""

    schema: str
    guid: str | None
    texts: tuple[str, ...]
    tokens: list[list[int]]
    target: int | float | None = None

    def to_row(self) -> tuple[str, ...]:
        guid = () if self.guid is None else (self.guid,)
        target = () if self.target is None else (repr(self.target),)
        return guid + self.texts + target


def _target(parse, ok, message: str):
    """A target rule: parse the column text, then check the value's range."""
    def rule(raw: str):
        value = parse(raw)
        if not ok(value):
            raise DataError(message.format(value))
        return value
    return rule


@dataclass(frozen=True)
class Schema:
    """One TSV layout. An "id" first column is the guid; a target rule
    parses the last column."""

    columns: tuple[str, ...]
    sentences: slice                 # the sentence columns
    target: Callable[[str], int | float] | None = None


SCHEMAS = {
    "classification": Schema(
        ("id", "sentence", "label"), slice(1, 2),
        _target(int, lambda v: 0 <= v <= 4, "label {} outside 0..4")),
    "pair_labeled": Schema(
        ("id", "sentence1", "sentence2", "is_duplicate"), slice(1, 3),
        _target(int, lambda v: v in (0, 1), "is_duplicate {} not in {{0, 1}}")),
    "pair_scored": Schema(
        ("id", "sentence1", "sentence2", "similarity"), slice(1, 3),
        _target(float, lambda v: 0.0 <= v <= 5.0, "similarity {} outside [0, 5]")),
    "triplet": Schema(("sent0", "sent1", "hard_neg"), slice(0, 3)),
}

# A task or synthetic corpus kind -> the schema of its rows; each task shares
# its name with the corpus kind that feeds it.
SYNTH_SCHEMAS = {"sst": "classification", "sts": "pair_scored",
                 "paraphrase": "pair_labeled", "nli": "triplet"}


def _schema(name: str) -> Schema:
    if name not in SCHEMAS:
        raise DataError(f"unknown schema {name!r}, expected one of {sorted(SCHEMAS)}")
    return SCHEMAS[name]


def _checked_target(s: Schema, row) -> int | float | None:
    """The row's parsed target (None for triplets), once its column count is
    checked; a fault raises ValueError (a DataError, or the parse's own)."""
    if len(row) != len(s.columns):
        raise DataError(f"expected {len(s.columns)} columns, got {len(row)}")
    return s.target(row[-1]) if s.target else None


def _parse_row(schema: str, row: tuple[str, ...], vocab: Vocab,
               max_len: int) -> Example:
    s = SCHEMAS[schema]
    target = _checked_target(s, row)
    texts = tuple(row[s.sentences])
    return Example(schema, row[0] if s.columns[0] == "id" else None, texts,
                   [tokenize(t, vocab, max_len) for t in texts], target)


def read_rows(path, schema: str) -> list[tuple[str, ...]]:
    """Raw TSV rows, header validated and dropped, each row's column count
    and target checked. A fault names the file and the line its row starts
    on: a quoted field may span lines."""
    s = _schema(schema)
    rows: list[tuple[str, ...]] = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""), delimiter="\t",
                        quotechar='"')
    line = 1
    try:
        header = next(reader, None)
        if header is None or tuple(header) != s.columns:
            raise DataError(f"expected header {list(s.columns)}, got {header}")
        line = reader.line_num + 1
        for row in reader:
            _checked_target(s, row)
            rows.append(tuple(row))
            line = reader.line_num + 1
    except (ValueError, csv.Error) as exc:   # csv.Error: a field past its size limit
        raise DataError(f"{str(path)!r}:{line}: {exc}") from None
    return rows


def load_tsv(path, schema: str, vocab: Vocab, max_len: int = 64) -> list[Example]:
    """Parse and tokenize a dataset file into Examples."""
    return examples_from_rows(read_rows(path, schema), schema, vocab, max_len)


def write_tsv(path, schema: str, rows) -> None:
    """Write rows (tuples of strings) under the schema's header.

    The csv writer quotes a field holding a tab, a quote or a newline, but
    not a bare carriage return, which the reader would take for a line end;
    a row with one is written with every field quoted, so read_rows gives
    back any text exactly.
    """
    columns = _schema(schema).columns
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter="\t", quotechar='"', lineterminator="\n")
        quoted = csv.writer(fh, delimiter="\t", quotechar='"', lineterminator="\n",
                            quoting=csv.QUOTE_ALL)
        writer.writerow(columns)
        for row in rows:
            (quoted if any("\r" in f for f in row) else writer).writerow(row)


def examples_from_rows(rows, schema: str, vocab: Vocab,
                       max_len: int = 64) -> list[Example]:
    """Tokenize parsed rows (``read_rows`` or synth_toy_corpus output)."""
    _schema(schema)
    return [_parse_row(schema, tuple(row), vocab, max_len) for row in rows]


def texts_of_rows(rows, schema: str) -> list[str]:
    """The sentence columns of raw rows, flattened (for vocabulary building)."""
    sentences = _schema(schema).sentences
    return [t for r in rows for t in r[sentences]]


def distinct_token_lists(token_lists) -> list[list[int]]:
    """Each distinct token list once, where first seen. Sentences that differ
    only in case, spacing or unknown words tokenize alike, and in a
    contrastive pool such copies would be each other's in-batch negatives."""
    return [list(t) for t in dict.fromkeys(map(tuple, token_lists))]


# -- batching -------------------------------------------------------------------

@dataclass
class Batch:
    """One padded mini-batch: its ``views`` sentence columns stacked in
    column order into one [views * B, T] ids/mask (rows ``j * B + i`` hold
    column j of example i), padded to the longest sentence of any column,
    and the targets, if any. One ``encode`` of the stacked rows serves every
    column."""

    token_ids: np.ndarray            # [views * B, T]
    mask: np.ndarray                 # [views * B, T]
    views: int = 1
    target: np.ndarray | None = None
    guids: tuple[str | None, ...] = ()

    # perfbench's batch counter still reads the per-column masks these names
    # held before the columns were stacked; ``mask`` now covers every column
    b_mask = c_mask = None

    @property
    def size(self) -> int:
        return self.token_ids.shape[0] // self.views


def pad_batch(token_lists) -> tuple[np.ndarray, np.ndarray]:
    """Pad variable-length id lists into [B, T] ids + 0/1 mask (pad id 0)."""
    b = len(token_lists)
    t = max(len(ts) for ts in token_lists)
    ids = np.zeros((b, t), dtype=np.int64)
    mask = np.zeros((b, t), dtype=np.float64)
    for i, ts in enumerate(token_lists):
        ids[i, :len(ts)] = ts
        mask[i, :len(ts)] = 1.0
    return ids, mask


def make_batches(examples, batch_size: int, rng: Rng | None = None) -> list[Batch]:
    """Chunk examples into padded batches, Fisher-Yates shuffled first when
    an rng is given.

    The last batch may be short. All examples must share one schema.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not examples:
        return []
    schema = examples[0].schema
    if any(e.schema != schema for e in examples):
        raise DataError("mixed example schemas in one dataset")
    order = list(examples)
    if rng is not None:
        rng.shuffle(order)

    batches = []
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        columns = list(zip(*(e.tokens for e in chunk)))
        ids, mask = pad_batch([ts for column in columns for ts in column])
        target = (None if chunk[0].target is None
                  else np.array([e.target for e in chunk]))
        batches.append(Batch(ids, mask, len(columns), target=target,
                             guids=tuple(e.guid for e in chunk)))
    return batches


# -- synthetic corpora -------------------------------------------------------------

_FILLERS = ("the", "a", "this", "that", "one")
_CLASS_POOLS = (
    ("dreadful", "awful", "atrocious", "abysmal", "horrid", "wretched"),
    ("bad", "weak", "dull", "flawed", "tedious", "clumsy"),
    ("plain", "fine", "okay", "average", "middling", "routine"),
    ("good", "solid", "nice", "crisp", "warm", "smart"),
    ("great", "superb", "splendid", "stellar", "dazzling", "glorious"),
)
_CONTENT_POOL = (
    "dog", "cat", "bird", "horse", "sailor", "river", "garden", "market",
    "moon", "train", "letter", "child", "teacher", "storm", "bridge",
    "apple", "stone", "harbor", "candle", "meadow", "lantern", "violin",
    "thunder", "basket", "willow", "clock", "mirror", "ladder", "anchor",
    "ribbon", "saddle", "kettle", "hammer", "engine", "pillow", "barrel",
    "canyon", "feather", "magnet", "tunnel",
)


def _pick(rng: Rng, pool, k: int, exclude=()) -> list[str]:
    """k distinct words from pool, skipping exclude, order by draw."""
    avail = [w for w in pool if w not in exclude]
    if k > len(avail):
        raise ValueError("word pool exhausted")
    rng.shuffle(avail)
    return avail[:k]


def _sentence(words) -> str:
    return " ".join(words)


def synth_toy_corpus(kind: str, size: int, rng: Rng) -> list[tuple[str, ...]]:
    """Schema-shaped raw rows with labels that are pure functions of the text.

    classification: label c marks two words from class pool c plus neutral
    content words. pair_scored: similarity = number of shared content words
    (five per sentence, so scores live in 0..5). pair_labeled: duplicates
    share all five content words (reordered); negatives share at most one.
    triplet: positive is a reordering of the anchor; negative uses disjoint
    words, so a bag-of-words embedding ranks pos above neg.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rows: list[tuple[str, ...]] = []
    if kind == "sst":
        for i in range(size):
            label = int(rng.uniform() * 5)
            markers = _pick(rng, _CLASS_POOLS[label], 2)
            content = _pick(rng, _CONTENT_POOL, 2)
            filler = _pick(rng, _FILLERS, 1)
            words = [filler[0], content[0], markers[0], markers[1], content[1]]
            rows.append((f"sst-{i:04d}", _sentence(words), str(label)))
    elif kind == "sts":
        for i in range(size):
            overlap = int(rng.uniform() * 6)
            a = _pick(rng, _CONTENT_POOL, 5)
            shared = a[:overlap]
            fresh = _pick(rng, _CONTENT_POOL, 5 - overlap, exclude=a)
            b = shared + fresh
            rng.shuffle(b)
            rows.append((f"sts-{i:04d}", _sentence(a), _sentence(b),
                         repr(float(overlap))))
    elif kind == "paraphrase":
        for i in range(size):
            dup = int(rng.uniform() * 2)
            a = _pick(rng, _CONTENT_POOL, 5)
            if dup:
                b = list(a)
                rng.shuffle(b)
            else:
                keep = int(rng.uniform() * 2)      # 0 or 1 shared words
                b = a[:keep] + _pick(rng, _CONTENT_POOL, 5 - keep, exclude=a)
                rng.shuffle(b)
            rows.append((f"para-{i:04d}", _sentence(a), _sentence(b), str(dup)))
    elif kind == "nli":
        for i in range(size):
            a = _pick(rng, _CONTENT_POOL, 5)
            pos = list(a)
            rng.shuffle(pos)
            neg = _pick(rng, _CONTENT_POOL, 5, exclude=a)
            rows.append((_sentence(a), _sentence(pos), _sentence(neg)))
    else:
        raise ValueError(f"unknown corpus kind {kind!r}, "
                         "expected sst | sts | paraphrase | nli")
    return rows

