import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from lossgate.data import (
    HASH_BUCKETS,
    Example,
    generate_toy_corpus,
    hash_bucket,
    load_dataset,
    make_batches,
    pack,
    tokenize,
    vectorize,
    write_jsonl,
)


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


def test_bow_vector_indices_sorted_in_range():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tokens = [f"t{rng.integers(10_000)}" for _ in range(rng.integers(0, 30))]
        idx = vectorize(tokens)
        assert np.all(np.diff(idx) > 0)
        assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < HASH_BUCKETS)


def test_bow_vector_rejects_out_of_range():
    with pytest.raises(ValueError):
        pack([[1, 2], [HASH_BUCKETS]])
    with pytest.raises(ValueError):
        pack([[-1]])


def test_pack_sorts_dedups_and_names_rows():
    batch = pack([[5, 3, 5], [], [7]], labels=[1, 0, 1], index=4)
    assert batch.indices.tolist() == [3, 5, 7]
    assert batch.rows.tolist() == [0, 0, 2]
    assert batch.labels.tolist() == [1, 0, 1]
    assert batch.index == 4
    assert len(batch) == 3


def test_example_features_match_vectorize():
    example = Example("Good movie, good plot", tokenize("Good movie, good plot"), 1)
    assert np.array_equal(example.features(), vectorize(["good", "movie", "plot"]))


# -- load_dataset ---------------------------------------------------------------


def test_load_jsonl(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "good movie", "label": 1}\n{"text": "bad plot", "label": 0}\n')
    examples = load_dataset(str(path))
    assert [ex.tokens for ex in examples] == [["good", "movie"], ["bad", "plot"]]
    assert [ex.label for ex in examples] == [1, 0]


def test_load_tsv(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("bad plot\t0\ngood movie\t1\n")
    examples = load_dataset(str(path))
    assert examples[0].tokens == ["bad", "plot"]
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


def test_load_tsv_missing_tab(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("no tab here\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(str(path))


def test_load_jsonl_pair_concatenation(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "first part", "text2": "second part", "label": 0}\n')
    examples = load_dataset(str(path))
    assert examples[0].tokens == ["first", "part", "second", "part"]


def test_load_unknown_extension_needs_format(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("x\t1\n")
    with pytest.raises(ValueError, match="format"):
        load_dataset(str(path))
    assert load_dataset(str(path), format="tsv")[0].label == 1


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
    assert [b.index for b in batches] == [0, 1, 2]


def test_make_batches_no_shuffle_preserves_order():
    examples = _examples(7)
    batches = make_batches(examples, batch_size=3, seed=9, shuffle=False)
    flattened = np.concatenate([b.indices for b in batches])
    assert np.array_equal(flattened, np.concatenate([ex.features() for ex in examples]))
    assert [int(y) for b in batches for y in b.labels] == [ex.label for ex in examples]


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


def test_make_batches_rejects_bad_input():
    with pytest.raises(ValueError):
        make_batches(_examples(3), batch_size=0)
    with pytest.raises(ValueError):
        make_batches([], batch_size=2)


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
