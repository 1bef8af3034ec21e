import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lossgate import data
from lossgate.data import (
    HASH_BUCKETS,
    Corpus,
    Example,
    generate_toy_corpus,
    hash_bucket,
    load_dataset,
    make_batches,
    pack,
    pack_examples,
    tokenize,
    vectorize,
    write_jsonl,
)
from lossgate.trainer import Trainer, TrainerConfig


# -- tokenize -----------------------------------------------------------------


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("Good, GREAT movie!") == ["good", "great", "movie"]


def test_tokenize_empty_input():
    assert tokenize("") == []
    assert tokenize("   ") == []
    assert tokenize("!!!") == []


def test_tokenize_collapses_whitespace():
    assert tokenize("a  b") == ["a", "b"]


def test_tokenize_idempotent_on_random_strings():
    rng = np.random.default_rng(42)
    alphabet = list("abcXYZ019 ,.!?-_'\t\né")
    for _ in range(200):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


# -- hashing / vectorize --------------------------------------------------------


def _reference_bucket(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2**18)


def test_hash_bucket_golden_values():
    # pinned so any platform or refactor drift is caught
    assert hash_bucket("good") == 231175
    assert hash_bucket("movie") == 247968
    assert hash_bucket("good") == _reference_bucket("good")
    assert hash_bucket("movie") == _reference_bucket("movie")


def test_vectorize_golden_buckets():
    vec = vectorize(["good", "movie"])
    assert vec.tolist() == [231175, 247968]


def test_vectorize_set_semantics():
    vec = vectorize(["x", "x", "y"])
    assert len(vec) in (1, 2)  # 1 only if x and y collide
    assert np.array_equal(vec, vectorize(["y", "x"]))


def test_vectorize_empty():
    assert len(vectorize([])) == 0


def test_vectorize_stable_across_calls():
    tokens = ["alpha", "beta", "gamma", "alpha"]
    a = vectorize(tokens)
    b = vectorize(list(tokens))
    assert np.array_equal(a, b)


def test_vectorize_gives_sorted_distinct_buckets_in_the_hash_space():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tokens = [f"t{rng.integers(10_000)}" for _ in range(rng.integers(0, 30))]
        idx = vectorize(tokens)
        assert np.all(np.diff(idx) > 0)
        assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < HASH_BUCKETS)


def test_pack_rejects_buckets_outside_the_hash_space():
    with pytest.raises(ValueError):
        pack([[1, 2], [HASH_BUCKETS]])
    with pytest.raises(ValueError):
        pack([[-1]])


@pytest.mark.parametrize("buckets, message", [
    ([2.9], "buckets must be integers"), (["5"], "buckets must be integers"), ([True, 3], "buckets must be integers"),
    ([1e20], "buckets must be integers"), ([2**70], "bucket index out of range"),
], ids=["2.9", "'5'", "True", "1e20", "2**70"])
def test_pack_rejects_buckets_that_are_not_integers_in_the_hash_space(buckets, message):
    # numpy would truncate 2.9, parse "5", read True as bucket 1 and overflow on 1e20 and 2**70
    with pytest.raises(ValueError, match=message):
        pack([buckets])


def test_pack_takes_numpy_integer_buckets():
    assert pack([[np.int64(5), np.uint8(3)], np.array([7])]).indices.tolist() == [3, 5, 7]


def test_pack_sorts_dedups_and_names_rows():
    batch = pack([[5, 3, 5], [], [7]])
    assert batch.indices.tolist() == [3, 5, 7]
    assert batch.rows.tolist() == [0, 0, 2]
    assert batch.labels.tolist() == [0, 0, 0]
    assert len(batch) == 3
    # packed in the given order, every example sits at its own position
    examples = [Example(text, tokenize(text), 0) for text in ("b", "a", "", "a")]
    for packed in (batch, pack([[1], [2], [3], [4]]), pack_examples(examples), pack([]), pack_examples([])):
        assert packed.positions.dtype == np.int64
        assert packed.positions.tolist() == list(range(len(packed)))


def test_records_are_slotted():
    example = Example("good movie", tokenize("good movie"), 1)
    for record in (example, pack_examples([example])):
        assert not hasattr(record, "__dict__")


def test_example_features_match_vectorize():
    example = Example("Good movie, good plot", tokenize("Good movie, good plot"), 1)
    assert np.array_equal(example.features(), vectorize(["good", "movie", "plot"]))


def test_an_example_is_its_text_label_and_buckets():
    # an example's buckets come from the tokens it was built with, not from its text
    built = [Example("a b", ["x"], 1)]
    converted = Corpus.from_examples(built)
    assert converted == built and list(converted) == built
    assert np.array_equal(converted[0].features(), vectorize(["x"]))
    # duplicate tokens give the same buckets, so the same example
    assert Example("a a b", ["a", "a", "b"], 1) == Example("a a b", ["a", "b"], 1)
    assert Example("a b", ["a", "b"], 1) != Example("a b", ["a"], 1)
    assert built[0].tokens == converted[0].tokens == tokenize("a b")
    assert repr(built[0]) == "Example(text='a b', label=1)"


# -- load_dataset ---------------------------------------------------------------


def test_load_jsonl(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "good movie", "label": 1}\n{"text": "bad plot", "label": 0}\n')
    examples = load_dataset(str(path))
    assert [tokenize(ex.text) for ex in examples] == [["good", "movie"], ["bad", "plot"]]
    assert [ex.label for ex in examples] == [1, 0]


def test_load_tsv(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("bad plot\t0\ngood movie\t1\n")
    examples = load_dataset(str(path))
    assert tokenize(examples[0].text) == ["bad", "plot"]
    assert examples[0].label == 0


def test_load_tsv_header_flag(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("text\tlabel\ngood\t1\n")
    examples = load_dataset(str(path), header=True)
    assert len(examples) == 1
    assert examples[0].label == 1


def test_load_label_out_of_range(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "ok", "label": 1}\n{"text": "nope", "label": 3}\n')
    with pytest.raises(ValueError, match="line 2.*label out of range"):
        load_dataset(str(path))


def test_load_malformed_json_names_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "ok", "label": 1}\n{oops\n')
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(str(path))


@pytest.mark.parametrize("name, ok, bad, message", [
    ("data.jsonl", '{"text": "good movie", "label": 1}', '{"text": "so so", "label": 7}', "label out of range: 7"),
    ("data.jsonl", '{"text": "good movie", "label": 1}', "{oops", "malformed JSON record"),
    ("data.tsv", "good movie\t1", "no tab here", "expected 'text<TAB>label'"),
])
def test_a_bad_line_is_named_though_a_valid_line_repeats_after_it(tmp_path, name, ok, bad, message):
    path = tmp_path / name
    path.write_text("\n".join([ok, ok, bad, ok, bad, ok]) + "\n")
    with pytest.raises(ValueError, match=f"^line 3: {message}"):
        load_dataset(str(path))


@pytest.mark.parametrize("name, line", [("data.jsonl", '{"text": "good movie", "label": 1}'), ("data.tsv", "good movie\t1")])
def test_a_byte_order_mark_is_dropped(tmp_path, name, line):
    path = tmp_path / name
    path.write_text("\ufeff" + line + "\n" + line + "\n", encoding="utf-8")
    assert [(ex.text, ex.label) for ex in load_dataset(str(path))] == [("good movie", 1)] * 2


def test_load_tsv_missing_tab(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("no tab here\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(str(path))


def test_load_jsonl_pair_concatenation(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "first part", "text2": "second part", "label": 0}\n')
    examples = load_dataset(str(path))
    assert tokenize(examples[0].text) == ["first", "part", "second", "part"]


def test_load_jsonl_text2_must_be_a_string_when_present(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "a b", "text2": null, "label": 1}\n')
    assert load_dataset(str(path))[0].text == "a b"
    path.write_text('{"text": "a b", "label": 1}\n{"text": "a b", "text2": 123, "label": 1}\n')
    with pytest.raises(ValueError, match="line 2: 'text2' must be a string"):
        load_dataset(str(path))


def test_loaded_corpus_bytes_per_example_stay_bounded(tmp_path):
    # measured 56 bytes held and 202 at the peak of the load per example
    # (CPython 3.11, numpy buffers included; the corpus is arrays, its texts
    # distinct); the bounds are those figures plus a third
    path = tmp_path / "corpus.jsonl"
    write_jsonl(generate_toy_corpus(2000, seed=3), str(path))
    load_dataset(str(path))  # fills the hash cache, which outlives any one corpus
    tracemalloc.start()
    try:
        examples = load_dataset(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(examples) < 75
    assert peak / len(examples) < 265


# -- bulk featurization -----------------------------------------------------------


def assert_featurized_in_bulk(examples):
    """Every example's buckets equal ``vectorize`` of its text's tokens, and
    all are read-only views of one read-only array."""
    base = examples[0].features().base
    assert base is not None and not base.flags.writeable
    for example in examples:
        got, want = example.features(), vectorize(tokenize(example.text))
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert got.base is base and not got.flags.writeable


def _colliding_tokens():
    """Two distinct tokens with the same bucket."""
    seen = {}
    for i in range(5000):
        token = f"c{i}"
        if hash_bucket(token) in seen:
            return seen[hash_bucket(token)], token
        seen[hash_bucket(token)] = token
    raise AssertionError("no colliding pair among 5000 tokens")


def _load_texts(tmp_path, texts):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"text": t, "label": i % 2}) + "\n" for i, t in enumerate(texts)))
    examples = load_dataset(str(path))
    assert [ex.text for ex in examples] == texts
    return examples


BULK_CORPORA = {
    "zero-token-first-middle-last": ["!!!", "good movie", "...", "bad plot", "!!!"],
    "repeated-tokens": ["a a a b b", "b a b a", "a", "b b"],
    "non-ascii": ["Ünïcödé STRASSE straße", "ΣΑΣ σας", "日本語 テキスト", "émoji 🙂 ok"],
    "one-example": ["just one example"],
    "one-zero-token-example": ["?!"],
}


@pytest.mark.parametrize("name", BULK_CORPORA)
def test_loaded_features_equal_vectorize(tmp_path, name):
    assert_featurized_in_bulk(_load_texts(tmp_path, BULK_CORPORA[name]))


def test_loaded_colliding_tokens_share_one_bucket(tmp_path):
    first, second = _colliding_tokens()
    examples = _load_texts(tmp_path, [f"{first} {second}", first, f"x {second}", f"{second} y {first} {first}"])
    assert_featurized_in_bulk(examples)
    assert [ex.features().size for ex in examples] == [1, 1, 2, 2]


def test_loaded_tsv_features_equal_vectorize(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("!!!\t0\ngood good movie\t1\nplot\t0\n")
    assert_featurized_in_bulk(load_dataset(str(path)))


def test_toy_corpus_features_equal_vectorize():
    corpus = generate_toy_corpus(300, seed=4, min_tokens=0, max_tokens=3, shared_vocab=5)
    assert any(not tokenize(ex.text) for ex in corpus)
    assert_featurized_in_bulk(corpus)


# -- duplicate texts share their content -----------------------------------------


def assert_duplicates_share_content(examples):
    """Examples with equal texts share one ``text`` object and one bucket
    array."""
    groups = {}
    for example in examples:
        groups.setdefault(example.text, []).append(example)
    duplicated = [group for group in groups.values() if len(group) > 1]
    assert duplicated
    for first, *rest in duplicated:
        for other in rest:
            assert other.text is first.text
            assert other.features() is first.features()
    assert_featurized_in_bulk(examples)


def test_loaded_duplicate_texts_share_content(tmp_path):
    path = tmp_path / "data.jsonl"
    records = [
        {"text": "Good movie, great plot", "label": 1},
        {"text": "bad acting", "label": 0},
        {"text": "Good movie, great plot", "label": 0},
        {"text": "Good movie,", "text2": "great plot", "label": 1},
        {"text": "good movie great plot", "label": 0},
    ]
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    examples = load_dataset(str(path))
    assert_duplicates_share_content(examples)
    assert examples[3].text is examples[0].text
    # equal tokens from a different text are a different content
    assert tokenize(examples[4].text) == tokenize(examples[0].text)
    assert examples[4].features() is not examples[0].features()


def test_loaded_tsv_duplicate_texts_share_content(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("a b b\t1\nc\t0\na b b\t0\n!!!\t1\n!!!\t0\n")
    assert_duplicates_share_content(load_dataset(str(path)))


def test_toy_corpus_duplicates_share_content():
    assert_duplicates_share_content(generate_toy_corpus(200, duplication=4))


def test_a_load_tokenizes_each_distinct_text_once(tmp_path, monkeypatch):
    """And hashes each distinct token once per load, whatever the shared
    ``hash_bucket`` cache already holds."""
    path = tmp_path / "data.jsonl"
    write_jsonl(generate_toy_corpus(200, duplication=4), str(path))
    calls, hashed = Counter(), Counter()

    def counted_tokenize(text):
        calls[text] += 1
        return tokenize(text)

    def counted_hash_bucket(token):
        hashed[token] += 1
        return hash_bucket(token)

    monkeypatch.setattr("lossgate.data.tokenize", counted_tokenize)
    monkeypatch.setattr("lossgate.data.hash_bucket", counted_hash_bucket)
    for load in (lambda: load_dataset(str(path)), lambda: generate_toy_corpus(200, duplication=4)):
        for _ in range(2):
            calls.clear()
            hashed.clear()
            examples = load()
            texts = {example.text for example in examples}
            assert len(calls) == 50
            assert calls == Counter(texts)
            assert hashed == Counter({token for text in texts for token in tokenize(text)})


def test_loading_an_empty_file_gives_no_examples(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("\n  \n")
    assert load_dataset(str(path)) == []


# -- JSONL parsing matches json.loads ------------------------------------------------


JSON_LINES = {
    "leading-whitespace": ('  {"text": "a b", "label": 1}', True),
    "trailing-whitespace": ('{"text": "a b", "label": 1} \t', True),
    "crlf": ('{"text": "a b", "label": 1}\r', True),
    "utf8-bom": ('\ufeff{"text": "a b", "label": 1}', False),
    "trailing-text": ('{"text": "a b", "label": 1} tail', False),
    "two-objects": ('{"text": "a b", "label": 1}{"text": "c", "label": 0}', False),
    "non-object": ('["a b", 1]', False),
    "malformed": ('{"text": "a b", "label": 1,}', False),
}


@pytest.mark.parametrize("name", JSON_LINES)
def test_jsonl_lines_load_as_json_loads_reads_them(tmp_path, name):
    line, accepted = JSON_LINES[name]
    path = tmp_path / "data.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write('{"text": "ok", "label": 0}\n' + line + "\n")
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        expected = f"line 2: malformed JSON record: {exc}"
    else:
        expected = None if isinstance(record, dict) else "line 2: record must have 'text' and 'label' fields"
    assert (expected is None) == accepted
    if accepted:
        examples = load_dataset(str(path))
        assert [(ex.text, ex.label) for ex in examples] == [("ok", 0), (record["text"], record["label"])]
    else:
        with pytest.raises(ValueError) as error:
            load_dataset(str(path))
        assert str(error.value) == expected


def test_load_unknown_extension_is_refused(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("x\t1\n")
    with pytest.raises(ValueError, match=r"format .*\.jsonl or \.tsv"):
        load_dataset(str(path))


def test_write_jsonl_roundtrip(tmp_path):
    corpus = generate_toy_corpus(50, duplication=2, noise_rate=0.1, seed=3)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, str(path))
    loaded = load_dataset(str(path))
    assert [ex.text for ex in loaded] == [ex.text for ex in corpus]
    assert [ex.label for ex in loaded] == [ex.label for ex in corpus]


# -- make_batches ----------------------------------------------------------------


def _examples(n):
    return [Example(f"tok{i}", [f"tok{i}"], i % 2) for i in range(n)]


def test_make_batches_sizes():
    batches = make_batches(_examples(10), batch_size=4, seed=0)
    assert [len(b) for b in batches] == [4, 4, 2]


def test_make_batches_same_seed_same_permutation():
    examples = _examples(23)
    a = make_batches(examples, batch_size=5, seed=11)
    b = make_batches(examples, batch_size=5, seed=11)
    assert [batch.indices.tolist() for batch in a] == [batch.indices.tolist() for batch in b]
    assert [batch.rows.tolist() for batch in a] == [batch.rows.tolist() for batch in b]


def test_make_batches_partition_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        examples = _examples(int(rng.integers(1, 40)))
        batches = make_batches(examples, batch_size=int(rng.integers(1, 9)), seed=int(rng.integers(1000)))
        packed = Counter(int(i) for b in batches for i in b.indices)
        assert packed == Counter(int(i) for ex in examples for i in ex.features())
        assert sum(len(b) for b in batches) == len(examples)


def _reference_batches(examples, batch_size, seed):
    order = np.random.default_rng(seed).permutation(len(examples))
    ordered = [examples[i] for i in order]
    return [pack_examples(ordered[start : start + batch_size]) for start in range(0, len(ordered), batch_size)]


def _random_corpus(rng):
    """1 to 40 examples of 0 to 5 tokens, so some examples have no buckets."""
    sizes = rng.integers(0, 6, size=rng.integers(1, 41))
    texts = [" ".join(f"w{k}" for k in rng.integers(0, 30, size=size)) for size in sizes]
    return [Example(text, tokenize(text), int(rng.integers(2))) for text in texts]


def assert_same_batches(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("indices", "rows", "labels"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


def assert_batches_name_their_positions(corpus, batches, seed):
    """The batches' positions, joined in order, are the seed's permutation,
    and each names its row's label and buckets in ``corpus``."""
    positions = np.concatenate([batch.positions for batch in batches])
    assert positions.dtype == np.int64
    assert np.array_equal(positions, np.random.default_rng(seed).permutation(len(corpus)))
    for batch in batches:
        assert np.array_equal(corpus.labels[batch.positions], batch.labels)
        for row, i in enumerate(batch.positions):
            assert np.array_equal(corpus[int(i)].features(), batch.indices[batch.rows == row])


def test_make_batches_equal_per_batch_packing():
    rng = np.random.default_rng(12)
    for trial in range(40):
        examples = _random_corpus(rng)
        n = len(examples)
        for batch_size in (1, 7, int(rng.integers(2, 9)), n, n + 3):
            got = make_batches(examples, batch_size, seed=trial)
            assert_same_batches(got, _reference_batches(examples, batch_size, trial))
            assert_batches_name_their_positions(Corpus.from_examples(examples), got, trial)


def test_corpus_batches_equal_packing_its_permuted_examples(tmp_path):
    # zero-token texts, and equal texts under both labels
    records = [
        ("good movie", 1), ("!!!", 0), ("good movie", 0), ("bad plot", 0), ("...", 1), ("good movie", 1),
        ("bad plot", 1), ("so so", 0), ("!!!", 1), ("fine", 1), ("good movie", 0),
    ]
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"text": text, "label": label}) + "\n" for text, label in records))
    loaded = load_dataset(str(path))
    assert [(ex.text, ex.label) for ex in loaded] == records
    assert len(loaded.texts) == 6
    generated = generate_toy_corpus(300, duplication=4, noise_rate=0.3, seed=5, min_tokens=0, max_tokens=3)
    for corpus in (loaded, generated):
        assert any(not ex.features().size for ex in corpus)
        for batch_size in (1, 4, 7, len(corpus), len(corpus) + 3):
            got = make_batches(corpus, batch_size, seed=3)
            assert len(got[-1]) == (len(corpus) % batch_size or batch_size)
            assert_same_batches(got, _reference_batches(list(corpus), batch_size, 3))
            assert_batches_name_their_positions(corpus, got, 3)


def assert_read_only_views_of_one_array_per_field(batches):
    for name in ("indices", "rows", "labels", "positions"):
        arrays = [getattr(batch, name) for batch in batches]
        base = arrays[0].base
        assert base is not None and not base.flags.writeable
        assert all(array.base is base and not array.flags.writeable for array in arrays)
        with pytest.raises(ValueError):
            arrays[0][:1] = 0


def test_batch_arrays_are_read_only_views_of_one_array_per_field():
    batches = make_batches(generate_toy_corpus(50, seed=2), batch_size=8, seed=1)
    assert_read_only_views_of_one_array_per_field(batches)
    # a batch is equal to itself alone and hashes by identity
    first, second = batches[:2]
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second, first}) == 2


def test_packing_rejects_labels_other_than_0_or_1():
    for label in (5, -1, True, 1.0):
        bad = [Example("a b", tokenize("a b"), 1), Example("c", tokenize("c"), label)]
        for packed in (lambda: make_batches(bad, 1), lambda: pack_examples(bad)):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                packed()
    for labels in (np.array([True, False]), np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            _two_examples(labels)


def test_packing_accepts_numpy_integer_labels():
    for labels in ([np.int64(1), np.uint8(0)], np.array([1, 0], dtype=np.uint8)):
        assert pack_examples(_two_examples(labels)).labels.tolist() == [1, 0]


def _two_examples(labels):
    """A corpus of the texts "a" and "b", with buckets 1 and 2, under these labels."""
    return Corpus(["a", "b"], np.arange(2), labels, np.array([0, 1, 2]), np.array([1, 2]))


def _corpus(content=(0, 1, 0), ptr=(0, 2, 3), buckets=(5, 9, 7)):
    """A corpus over the texts "a b" and "c" with these arrays."""
    return Corpus(["a b", "c"], np.array(content), [1, 0, 1], np.array(ptr), np.array(buckets))


@pytest.mark.parametrize("content", [(0, -1, 1), (0, 2, 1), (-3,)])
def test_corpus_rejects_content_ids_outside_its_texts(content):
    # a negative id would wrap to the last text
    with pytest.raises(ValueError, match="content ids"):
        _corpus(content=content)


@pytest.mark.parametrize(
    "ptr", [(0, 2), (0, 2, 3, 3), (1, 2, 3), (0, 2, 2), (0, 2, 4), (0, 4, 3), ((0, 2, 3),)],
    ids=["short", "long", "not-from-0", "short-of-buckets", "past-buckets", "decreasing", "2-d"],
)
def test_corpus_rejects_ptr_that_does_not_span_buckets(ptr):
    with pytest.raises(ValueError, match="ptr"):
        _corpus(ptr=ptr)


@pytest.mark.parametrize("name, array", [
    ("content", [0.0, 1.0, 0.0]), ("ptr", [0.0, 2.0, 3.0]), ("buckets", [5.0, 9.0, 7.0]),
    ("buckets", [True, False, True]),
], ids=["float-content", "float-ptr", "float-buckets", "bool-buckets"])
def test_corpus_rejects_arrays_that_are_not_integer(name, array):
    # a float content id or bucket builds, then fails when iterated or batched
    with pytest.raises(ValueError, match="content, ptr and buckets must be integer arrays"):
        _corpus(**{name: array})


@pytest.mark.parametrize("name", ["content", "ptr", "buckets"])
def test_corpus_rejects_integer_lists_for_its_arrays(name):
    arrays = {"content": np.array([0, 1, 0]), "ptr": np.array([0, 2, 3]), "buckets": np.array([5, 9, 7])}
    arrays[name] = arrays[name].tolist()
    with pytest.raises(ValueError, match="content, ptr and buckets must be integer arrays"):
        Corpus(["a b", "c"], arrays["content"], [1, 0, 1], arrays["ptr"], arrays["buckets"])


@pytest.mark.parametrize("buckets", [(5, 9, -3), (5, 9, HASH_BUCKETS), (300000, 9, 7)])
def test_corpus_rejects_buckets_outside_the_hash_space(buckets):
    # a negative bucket would index the weights from their end and train silently
    with pytest.raises(ValueError, match=rf"buckets must lie in \[0, {HASH_BUCKETS}\)"):
        _corpus(buckets=buckets)


def test_corpus_holds_int64_views_of_narrower_integer_arrays():
    corpus = _corpus(content=np.array([0, 1, 0], dtype=np.int32), ptr=np.array([0, 2, 3], dtype=np.uint8))
    assert corpus.content.dtype == corpus.ptr.dtype == corpus.buckets.dtype == np.int64
    assert [ex.features().tolist() for ex in corpus] == [[5, 9], [7], [5, 9]]


def test_corpus_keeps_read_only_views_and_leaves_the_callers_arrays_writeable():
    content, ptr, buckets = np.array([0, 1, 0]), np.array([0, 2, 3]), np.array([5, 9, 7])
    corpus = Corpus(["a b", "c"], content, [1, 0, 1], ptr, buckets)
    for given, held in ((content, corpus.content), (ptr, corpus.ptr), (buckets, corpus.buckets)):
        assert given.flags.writeable and not held.flags.writeable
        assert held.base is given  # a view, not a copy
    assert [(ex.text, ex.label, ex.features().tolist()) for ex in corpus] == [
        ("a b", 1, [5, 9]), ("c", 0, [7]), ("a b", 1, [5, 9])
    ]
    empty = Corpus([], np.empty(0, dtype=np.int64), [], np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert len(empty) == 0


def test_make_batches_rejects_bad_input():
    with pytest.raises(ValueError):
        make_batches(_examples(3), batch_size=0)
    with pytest.raises(ValueError):
        make_batches([], batch_size=2)


def test_a_size_of_2_to_the_63_or_more_is_refused_by_name():
    # numpy indexes with a signed 64-bit integer, so a larger size would fail inside numpy
    assert data.checked_size("batch_size", 2**63 - 1) == 2**63 - 1
    for size in (2**63, 10**19):
        with pytest.raises(ValueError, match=r"^batch_size must be <= 2\*\*63 - 1"):
            make_batches(_examples(3), batch_size=size)


@pytest.mark.parametrize("seed", [True, 1.5, -1, "1"])
def test_make_batches_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # a bool would shuffle with seed 1
    with pytest.raises(ValueError, match="seed"):
        make_batches(_examples(4), 2, seed=seed)


# -- the partition a corpus keeps ------------------------------------------------


def count_gathers(monkeypatch) -> list:
    """Make every gather append its batch size to the returned list."""
    gather, gathered = data._gathered, []

    def counting_gathered(*args):
        gathered.append(args[-1])
        return gather(*args)

    monkeypatch.setattr(data, "_gathered", counting_gathered)
    return gathered


def test_a_corpus_keeps_the_partition_of_its_last_key(monkeypatch):
    corpus = generate_toy_corpus(60, duplication=3, seed=8)
    gathered = count_gathers(monkeypatch)
    results = []
    for seed in (0, 1, 0):
        got = make_batches(corpus, 7, seed=seed)
        assert_same_batches(got, make_batches(corpus[:], 7, seed=seed))
        assert all(a is b for a, b in zip(got, make_batches(corpus, 7, seed=seed)))
        results.append(got)
    # seed 1 replaced the seed-0 partition, so seed 0 was gathered again
    assert results[2][0] is not results[0][0]
    assert len(gathered) == 6  # three for the corpus, one for each fresh copy


def test_changing_a_returned_list_leaves_the_next_one_whole():
    corpus = generate_toy_corpus(60, duplication=3, seed=8)
    got = make_batches(corpus, 7, seed=2)
    expected = list(got)
    got.reverse()
    got.pop()
    got.append(got[0])
    assert make_batches(corpus, 7, seed=2) == expected


WARM_REFUSALS = [
    ("batch_size", 0, 1), ("batch_size", 7.0, 1), ("batch_size", True, 1),
    ("seed", 7, True), ("seed", 7, -1), ("seed", 7, 1.0),
]


@pytest.mark.parametrize("name, batch_size, seed", WARM_REFUSALS)
def test_a_warm_corpus_still_refuses_a_bad_batch_size_or_seed(name, batch_size, seed):
    # 7.0, True and 1.0 compare equal to the kept key (7, 1)
    corpus = generate_toy_corpus(60, duplication=3, seed=8)
    make_batches(corpus, 7, seed=1)
    with pytest.raises(ValueError, match=name):
        make_batches(corpus, batch_size, seed=seed)


def test_the_kept_batches_stay_read_only_views_after_a_run():
    corpus = generate_toy_corpus(400, duplication=4, seed=3)
    config = TrainerConfig(epochs=2, batch_size=8, seed=1, threshold_window=8, n0_fraction=0.1, alt=0.6)
    trainer = Trainer(config, corpus)
    trainer.run()
    batches = make_batches(corpus, 8, seed=1)
    assert all(a is b for a, b in zip(batches, trainer._epoch_batches))
    assert_read_only_views_of_one_array_per_field(batches)


# -- toy corpus -------------------------------------------------------------------


def test_toy_corpus_size_and_labels():
    corpus = generate_toy_corpus(200, duplication=4, noise_rate=0.0, seed=1)
    assert len(corpus) == 200
    assert set(ex.label for ex in corpus) == {0, 1}


def test_toy_corpus_duplication():
    corpus = generate_toy_corpus(200, duplication=4, noise_rate=0.0, seed=1)
    counts = Counter(ex.text for ex in corpus)
    assert max(counts.values()) >= 4
    assert len(counts) == 50


def test_toy_corpus_deterministic():
    a = generate_toy_corpus(100, duplication=2, noise_rate=0.05, seed=42)
    b = generate_toy_corpus(100, duplication=2, noise_rate=0.05, seed=42)
    assert [(ex.text, ex.label) for ex in a] == [(ex.text, ex.label) for ex in b]


def test_toy_corpus_noise_flips_labels_within_duplicate_groups():
    def minority_fraction(corpus):
        groups = {}
        for ex in corpus:
            groups.setdefault(ex.text, []).append(ex.label)
        minority = sum(min(labels.count(0), labels.count(1)) for labels in groups.values())
        return minority / len(corpus)

    clean = generate_toy_corpus(2000, duplication=10, noise_rate=0.0, seed=7)
    noisy = generate_toy_corpus(2000, duplication=10, noise_rate=0.2, seed=7)
    assert minority_fraction(clean) == 0.0
    assert 0.1 < minority_fraction(noisy) < 0.3


def test_toy_corpus_validation():
    with pytest.raises(ValueError):
        generate_toy_corpus(0)
    with pytest.raises(ValueError):
        generate_toy_corpus(10, duplication=0)
    with pytest.raises(ValueError):
        generate_toy_corpus(10, noise_rate=1.0)


BAD_TOY_VALUES = [
    ("seed", True), ("seed", 1.5), ("seed", -1), ("seed", np.int64(-1)),
    ("indicative_prob", True), ("indicative_prob", "0.5"), ("noise_rate", "0.1"),
]


@pytest.mark.parametrize("name, value", BAD_TOY_VALUES, ids=[f"{n}-{v!r}" for n, v in BAD_TOY_VALUES])
def test_toy_corpus_refuses_a_bool_a_string_or_a_bad_seed(name, value):
    # a bool would build the corpus at probability 1.0 or seed 1
    with pytest.raises(ValueError, match=name):
        generate_toy_corpus(10, **{name: value})


def test_toy_corpus_takes_numpy_numbers():
    a = generate_toy_corpus(20, seed=np.int64(3), noise_rate=np.float64(0.1), indicative_prob=np.float32(0.5))
    b = generate_toy_corpus(20, seed=3, noise_rate=0.1, indicative_prob=float(np.float32(0.5)))
    assert [(ex.text, ex.label) for ex in a] == [(ex.text, ex.label) for ex in b]


BAD_TOY_SIZES = [
    ("num_examples", True), ("num_examples", "10"), ("duplication", 2.5), ("duplication", True),
    ("class_vocab", 2.5), ("shared_vocab", True), ("min_tokens", 1.5), ("max_tokens", 3.0),
]


@pytest.mark.parametrize("name, value", BAD_TOY_SIZES)
def test_toy_corpus_refuses_a_size_that_is_not_an_integer(name, value):
    # 2.5 copies of a text or a vocabulary of True words cannot be generated
    params = {"num_examples": 10, "min_tokens": 1, "max_tokens": 3, name: value}
    with pytest.raises(ValueError, match=name):
        generate_toy_corpus(**params)


def test_toy_corpus_refuses_each_vocabulary_size_by_name():
    for name in ("class_vocab", "shared_vocab"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            generate_toy_corpus(10, **{name: 0})


def test_toy_corpus_takes_numpy_integer_sizes_as_python_ones():
    sizes = dict(num_examples=40, duplication=4, class_vocab=7, shared_vocab=9, min_tokens=1, max_tokens=3)
    expected = generate_toy_corpus(**sizes)
    got = generate_toy_corpus(**{name: np.int64(value) for name, value in sizes.items()})
    assert got == expected and got.texts == expected.texts


@pytest.mark.parametrize("batch_size", [True, 2.5, "2"])
def test_make_batches_refuses_a_batch_size_that_is_not_an_integer(batch_size):
    # True would cut batches of one example, and 2.5 uneven ones
    with pytest.raises(ValueError, match="batch_size"):
        make_batches(_examples(3), batch_size=batch_size)
