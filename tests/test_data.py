import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcse_forge.data import (CLS_ID, PAD_ID, SEP_ID, UNK_ID, Batch,
                               DataError, Example, Vocab, examples_from_rows,
                               load_tsv, make_batches, pad_batch, read_rows, read_text,
                               sentences_of, split_words, synth_toy_corpus,
                               SCHEMAS, SYNTH_SCHEMAS, tokenize, write_tsv)
from simcse_forge.rng import Rng


@pytest.fixture
def vocab():
    return Vocab.build(["the dog runs", "the cat sleeps", "a bird sings"])


# -- tokenization ------------------------------------------------------------------

def test_split_words_lowercase_and_punct():
    assert split_words("Hello, World!") == ["hello", ",", "world", "!"]
    assert split_words("don't stop") == ["don", "'", "t", "stop"]
    assert split_words("") == []


def test_split_words_idempotent_under_whitespace():
    assert split_words("a  b\t c") == split_words("a b c")


def test_tokenize_empty_is_cls_sep(vocab):
    assert tokenize("", vocab) == [CLS_ID, SEP_ID]


def test_tokenize_case_folding(vocab):
    assert tokenize("Dog dog DOG", vocab) == tokenize("dog dog dog", vocab)
    a = tokenize("Hello hello", vocab)
    assert a[1] == a[2] == UNK_ID  # not in vocab


def test_tokenize_unknown_fallback(vocab):
    ids = tokenize("the zeppelin", vocab)
    assert ids[0] == CLS_ID and ids[-1] == SEP_ID
    assert ids[1] != UNK_ID     # "the" is in vocab
    assert ids[2] == UNK_ID


def test_tokenize_truncation(vocab):
    ids = tokenize("the dog runs the cat sleeps", vocab, max_len=4)
    assert len(ids) == 4
    assert ids[0] == CLS_ID and ids[-1] == SEP_ID


def test_vocab_reserved_ids_and_build_determinism():
    v1 = Vocab.build(["b a a", "c b a"])
    v2 = Vocab.build(["b a a", "c b a"])
    assert v1.token_to_id == v2.token_to_id
    # frequency order: a(3) b(2) c(1), after the 4 reserved ids
    assert v1.id_of("a") == 4
    assert v1.id_of("b") == 5
    assert v1.id_of("c") == 6
    assert len(v1) == 7


def test_vocab_min_count():
    v = Vocab.build(["a a b"], min_count=2)
    assert "a" in v.token_to_id and "b" not in v.token_to_id


def test_vocab_save_load_roundtrip(tmp_path):
    v = Vocab.build(["the dog runs fast", "a cat naps"])
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = Vocab.load(path)
    assert loaded.token_to_id == v.token_to_id
    # file layout: token at line k has id k+3 (1-based lines after 4 reserved)
    lines = path.read_text().splitlines()
    assert v.id_of(lines[0]) == 4


def test_vocab_duplicate_tokens_rejected():
    with pytest.raises(DataError, match="duplicates"):
        Vocab.from_tokens(["dog", "dog"])


# -- examples and TSV I/O ------------------------------------------------------------

def test_example_validation(vocab):
    with pytest.raises(DataError, match="0..4"):
        examples_from_rows([("x", "hi", "7")], "classification", vocab)
    with pytest.raises(DataError, match="0, 1"):
        examples_from_rows([("x", "a", "b", "2")], "pair_labeled", vocab)
    with pytest.raises(DataError, match=r"\[0, 5\]"):
        examples_from_rows([("x", "a", "b", "5.5")], "pair_scored", vocab)


def test_load_tsv_classification(tmp_path, vocab):
    p = tmp_path / "train.tsv"
    write_tsv(p, "classification", [("a", "the dog runs", "3"),
                                    ("b", "a cat", "0"),
                                    ("c", "bird sings", "4")])
    examples = load_tsv(p, "classification", vocab)
    assert [e.target for e in examples] == [3, 0, 4]
    assert examples[0].tokens[0][0] == CLS_ID
    assert examples[0].guid == "a"


def test_load_tsv_score_precision(tmp_path, vocab):
    p = tmp_path / "sts.tsv"
    write_tsv(p, "pair_scored", [("a", "x", "y", "2.5"),
                                 ("b", "x", "y", repr(1.0 / 3.0))])
    examples = load_tsv(p, "pair_scored", vocab)
    assert examples[0].target == 2.5
    assert examples[1].target == 1.0 / 3.0


def test_load_tsv_bad_label_names_line(tmp_path, vocab):
    p = tmp_path / "bad.tsv"
    write_tsv(p, "classification", [("a", "x", "1"), ("b", "y", "7")])
    with pytest.raises(DataError, match=r"bad\.tsv':3"):
        load_tsv(p, "classification", vocab)


def test_load_tsv_wrong_columns(tmp_path, vocab):
    p = tmp_path / "bad.tsv"
    p.write_text("id\tsentence\tlabel\nonly-two\tcolumns\n")
    with pytest.raises(DataError, match="columns"):
        load_tsv(p, "classification", vocab)


def test_load_tsv_missing_file_and_header(tmp_path, vocab):
    with pytest.raises(DataError, match="not found"):
        load_tsv(tmp_path / "nope.tsv", "classification", vocab)
    p = tmp_path / "h.tsv"
    p.write_text("wrong\theader\there\n")
    with pytest.raises(DataError, match="header"):
        load_tsv(p, "classification", vocab)
    with pytest.raises(DataError, match="schema"):
        load_tsv(p, "quads", vocab)


def test_read_text_of_a_directory_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read") as info:
        read_text(tmp_path)
    assert str(tmp_path) in str(info.value) and "Errno" not in str(info.value)


def test_examples_from_rows_checks_the_column_count(vocab):
    for row in [("a", "x", "y", "1"), ("a", "1")]:
        with pytest.raises(DataError, match="expected 3 columns"):
            examples_from_rows([row], "classification", vocab)


def test_tsv_quoting_roundtrip(tmp_path, vocab):
    rows = [("a", 'has\ttab and "quotes"', "newline\nin text", "1")]
    p = tmp_path / "q.tsv"
    write_tsv(p, "pair_labeled", rows)
    examples = load_tsv(p, "pair_labeled", vocab)
    assert examples[0].texts[0] == 'has\ttab and "quotes"'
    assert examples[0].texts[1] == "newline\nin text"
    # write back from the parsed examples: identical rows
    write_tsv(tmp_path / "q2.tsv", "pair_labeled", [e.to_row() for e in examples])
    assert read_rows(tmp_path / "q2.tsv", "pair_labeled") == rows


def test_roundtrip_all_schemas(tmp_path, vocab):
    for kind, schema in SYNTH_SCHEMAS.items():
        rows = synth_toy_corpus(kind, 20, Rng(5))
        p = tmp_path / f"{kind}.tsv"
        write_tsv(p, schema, rows)
        examples = load_tsv(p, schema, vocab)
        assert [e.to_row() for e in examples] == rows


# any text, with the characters a TSV reader could take for structure drawn often
_FIELD = st.text(st.one_of(st.sampled_from('\t"\n\r\x00\x1c\x85\u2028\u00e9 '),
                           st.characters(exclude_categories=("Cs",))),
                 max_size=10)
# each schema's targets in canonical form (what to_row writes)
_TARGET = {"classification": st.integers(0, 4).map(str),
           "pair_labeled": st.sampled_from(["0", "1"]),
           "pair_scored": st.floats(0.0, 5.0).map(repr)}


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_text_roundtrips_through_tsv(schema, data):
    target = [_TARGET[schema]] if schema in _TARGET else []
    fields = [_FIELD] * (len(SCHEMAS[schema].columns) - len(target)) + target
    rows = data.draw(st.lists(st.tuples(*fields), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.tsv"
        write_tsv(path, schema, rows)
        examples = load_tsv(path, schema, Vocab.build(["a b"]))
    assert [e.to_row() for e in examples] == rows


def test_sentences_of_dedup(vocab):
    examples = [Example("pair_scored", "a", ("x y", "z"), [[1, 2], [1, 2]], 1.0),
                Example("pair_scored", "b", ("z", "x y"), [[1, 2], [1, 2]], 2.0)]
    assert sentences_of(examples) == ["x y", "z"]


# -- batching -------------------------------------------------------------------------

def test_pad_batch_shapes_and_mask():
    ids, mask = pad_batch([[1, 5, 2], [1, 2]])
    assert ids.shape == mask.shape == (2, 3)
    assert ids[1, 2] == PAD_ID
    assert mask.tolist() == [[1, 1, 1], [1, 1, 0]]


def test_make_batches_sizes(vocab):
    examples = [Example("classification", str(i), ("the dog",),
                        [tokenize("the dog", vocab)], i % 5)
                for i in range(10)]
    batches = make_batches(examples, 4)
    assert [b.size for b in batches] == [4, 4, 2]
    assert all(isinstance(b, Batch) for b in batches)
    total = [lbl for b in batches for lbl in b.target.tolist()]
    assert sorted(total) == sorted(e.target for e in examples)


def test_make_batches_shuffle_deterministic(vocab):
    examples = [Example("classification", str(i), ("a",), [[CLS_ID, SEP_ID]], 0)
                for i in range(20)]
    b1 = make_batches(examples, 6, Rng(3))
    b2 = make_batches(examples, 6, Rng(3))
    assert [b.guids for b in b1] == [b.guids for b in b2]
    b3 = make_batches(examples, 6, Rng(4))
    assert [b.guids for b in b1] != [b.guids for b in b3]
    # no rng, no shuffle: insertion order
    assert [g for b in make_batches(examples, 6) for g in b.guids] == [
        str(i) for i in range(20)]


def test_make_batches_no_loss_no_duplication(vocab):
    examples = [Example("classification", str(i), ("a",), [[CLS_ID, SEP_ID]], 0)
                for i in range(17)]
    batches = make_batches(examples, 5, Rng(0))
    seen = [g for b in batches for g in b.guids]
    assert sorted(seen) == sorted(str(i) for i in range(17))


def test_make_batches_variants(vocab):
    pairs = [Example("pair_scored", "a", ("x", "y"), [[1, 4, 2], [1, 2]], 3.0)]
    (b,) = make_batches(pairs, 2)
    assert (b.views, b.size) == (2, 1) and b.target is not None
    # side a, then side b, padded to the longest sentence of either
    assert b.token_ids.tolist() == [[1, 4, 2], [1, 2, 0]]
    assert b.mask.tolist() == [[1, 1, 1], [1, 1, 0]]
    trip = [Example("triplet", None, ("x", "y", "z"), [[1, 2], [1, 5, 2], [1, 2]])
            for _ in range(2)]
    (t,) = make_batches(trip, 2)
    assert (t.views, t.size, t.target) == (3, 2, None)
    # anchors, positives, hard negatives
    assert t.token_ids.tolist() == [[1, 2, 0]] * 2 + [[1, 5, 2]] * 2 + [[1, 2, 0]] * 2
    with pytest.raises(DataError, match="mixed"):
        make_batches([pairs[0], trip[0]], 2)
    with pytest.raises(ValueError, match="batch_size"):
        make_batches(pairs, 0)
    assert make_batches([], 4) == []


# -- synthetic corpora -----------------------------------------------------------------

def test_synth_sizes_and_schemas():
    for kind, schema in SYNTH_SCHEMAS.items():
        rows = synth_toy_corpus(kind, 13, Rng(1))
        assert len(rows) == 13
        assert all(len(r) == len_schema(schema) for r in rows)
    with pytest.raises(ValueError, match="size"):
        synth_toy_corpus("sst", 0, Rng(0))
    with pytest.raises(ValueError, match="kind"):
        synth_toy_corpus("mystery", 3, Rng(0))


def len_schema(schema):
    from simcse_forge.data import SCHEMAS
    return len(SCHEMAS[schema].columns)


def test_synth_deterministic():
    assert synth_toy_corpus("sts", 25, Rng(9)) == synth_toy_corpus("sts", 25, Rng(9))


def test_synth_sts_score_equals_overlap():
    rows = synth_toy_corpus("sts", 200, Rng(2))
    scores = set()
    for _, a, b, score in rows:
        overlap = len(set(a.split()) & set(b.split()))
        assert float(score) == float(overlap)
        scores.add(float(score))
    assert scores == {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}   # all bands occur at n=200
    # duplicated pair scores 5, disjoint pair scores 0 (generator contract)
    fives = [r for r in rows if float(r[3]) == 5.0]
    assert all(set(r[1].split()) == set(r[2].split()) for r in fives)
    zeros = [r for r in rows if float(r[3]) == 0.0]
    assert all(not set(r[1].split()) & set(r[2].split()) for r in zeros)


def test_synth_sst_marker_words_separate_classes():
    from simcse_forge.data import _CLASS_POOLS
    rows = synth_toy_corpus("sst", 100, Rng(3))
    for _, sentence, label in rows:
        words = set(sentence.split())
        hits = [c for c, pool in enumerate(_CLASS_POOLS) if words & set(pool)]
        assert hits == [int(label)]


def test_synth_paraphrase_overlap_contract():
    rows = synth_toy_corpus("paraphrase", 100, Rng(4))
    for _, a, b, dup in rows:
        shared = len(set(a.split()) & set(b.split()))
        if dup == "1":
            assert shared == 5
        else:
            assert shared <= 1


def test_synth_triplet_bow_ranking():
    # bag-of-words oracle: positive reorders the anchor's words, negative is
    # disjoint, so cos(anchor, pos) = 1 > cos(anchor, neg) = 0
    rows = synth_toy_corpus("nli", 50, Rng(6))
    vocab_words = sorted({w for row in rows for s in row for w in s.split()})
    index = {w: i for i, w in enumerate(vocab_words)}

    def bow(s):
        v = np.zeros(len(index))
        for w in s.split():
            v[index[w]] += 1
        return v / np.linalg.norm(v)

    for anchor, pos, neg in rows:
        assert float(bow(anchor) @ bow(pos)) == pytest.approx(1.0, abs=1e-12)
        assert float(bow(anchor) @ bow(neg)) == pytest.approx(0.0, abs=1e-12)


@given(st.text(max_size=80))
@settings(max_examples=60, deadline=None)
def test_tokenize_total_and_bounded(text):
    v = Vocab.build(["some words here"])
    ids = tokenize(text, v, max_len=16)
    assert 2 <= len(ids) <= 16
    assert ids[0] == CLS_ID and ids[-1] == SEP_ID
    assert all(0 <= i < len(v) for i in ids)
