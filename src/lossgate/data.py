"""Dataset ingestion, tokenization, hashed bag-of-words features, and batching.

Text is reduced to presence bits over a fixed 2**18-bucket hash space so no
vocabulary pass is needed; everything downstream stays single-pass.

A loaded corpus is featurized in bulk, once per distinct text:
``load_dataset`` checks every record first, then tokenizes each distinct
text once, hashes each distinct token once and sorts the distinct texts'
``(text, bucket)`` keys in one array, whose read-only slices are the
buckets. Duplicate texts share the ``text`` string and the bucket view; each
duplicate owns its copy of the token list. ``generate_toy_corpus`` does the
same; an ``Example`` built directly runs ``vectorize``, the one-example
definition. The corpus is kept compact: tokens are interned, so a token
repeated across examples is one string object, and ``Example`` and
``MiniBatch`` are slotted. Batching packs the examples once into three
read-only arrays (buckets, in-batch rows, labels) and every ``MiniBatch`` is
a slice of them. Packing rejects a label other than 0 or 1.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

HASH_BUCKETS = 1 << 18

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, dropping the punctuation.

    Tokens are interned, so equal tokens across a corpus are one object.
    """
    return list(map(sys.intern, _TOKEN_RE.findall(text.lower())))


@functools.lru_cache(maxsize=1 << 16)
def hash_bucket(token: str) -> int:
    """Stable 64-bit hash of a token, folded into [0, HASH_BUCKETS).

    Uses blake2b so the mapping is identical across runs, platforms, and
    interpreter hash seeds. Memoized: a corpus repeats a small vocabulary.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % HASH_BUCKETS


def vectorize(tokens: list[str]) -> np.ndarray:
    """Presence bits of a token list: its sorted, distinct hash buckets.

    Set semantics on purpose: duplicate tokens collapse to one bit, matching
    a Bernoulli feature model. The one-example definition, which bulk
    featurization (``_corpus_buckets``) reproduces for a whole corpus.
    """
    return np.array(sorted(set(map(hash_bucket, tokens))), dtype=np.int64)


@dataclass(slots=True)
class Example:
    """One labelled text: the unit every filtering decision is made over."""

    text: str
    tokens: list[str]
    label: int
    _buckets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._buckets = vectorize(self.tokens)

    def features(self) -> np.ndarray:
        """Sorted distinct hash buckets of the tokens, computed at construction."""
        return self._buckets


def _corpus_buckets(token_lists: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Every token list's ``vectorize``, in bulk: the lists' sorted, distinct
    buckets concatenated into one read-only array, and the offset where each
    list's buckets end. ``hash_bucket`` runs once per distinct token, and the
    keys ``row * HASH_BUCKETS + bucket`` of all lists are sorted once. A load
    passes one list per distinct text, so duplicates add no keys."""
    buckets = dict.fromkeys(chain.from_iterable(token_lists))
    for token in buckets:
        buckets[token] = hash_bucket(token)
    n = len(token_lists)
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=n)
    row_starts = np.arange(n + 1, dtype=np.int64) * HASH_BUCKETS
    keys = np.fromiter(
        map(buckets.__getitem__, chain.from_iterable(token_lists)), dtype=np.int64, count=int(lengths.sum())
    )
    keys += np.repeat(row_starts[:-1], lengths)
    keys.sort()
    distinct = np.empty(keys.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    ends = np.searchsorted(keys, row_starts[1:])
    keys %= HASH_BUCKETS
    keys.flags.writeable = False
    return keys, ends


def _featurized(texts: list[str], labels: list[int]) -> list[Example]:
    """``Example(text, tokenize(text), label)`` for each pair, featurized in
    bulk once per distinct text: equal texts share one ``text`` object and
    one read-only slice of one bucket array, and each example owns a copy of
    its content's token list, so editing one leaves its duplicates alone."""
    content_ids: dict[str, int] = {}
    contents = [content_ids.setdefault(text, len(content_ids)) for text in texts]
    distinct = list(content_ids)
    token_lists = list(map(tokenize, distinct))
    buckets, ends = _corpus_buckets(token_lists)
    ends = ends.tolist()
    views = [buckets[start:end] for start, end in zip(chain((0,), ends), ends)]
    examples = []
    for content, label in zip(contents, labels):
        example = Example.__new__(Example)
        example.text, example.tokens, example.label, example._buckets = (
            distinct[content], token_lists[content].copy(), label, views[content]
        )
        examples.append(example)
    return examples


@dataclass(frozen=True, slots=True)
class MiniBatch:
    """Examples packed for the model and the predictor alike.

    ``indices`` concatenates every example's sorted, distinct buckets and
    ``rows`` names the example each index belongs to, so per-example sums are
    one ``np.bincount(rows, weights, minlength=len(batch))``. The arrays are
    read-only views, shared with the other batches packed alongside.
    """

    indices: np.ndarray
    rows: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.size


def _packed(features: list[np.ndarray], labels, batch_size: int) -> list[MiniBatch]:
    """Cut ``features`` and their 0/1 ``labels``, in order, into batches of
    ``batch_size`` (the last may be short; no examples give one empty batch),
    each a slice of the same three read-only arrays."""
    labels = np.asarray(labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    n = len(features)
    labels = labels.reshape(n).astype(np.int64)
    lengths = np.fromiter(map(len, features), dtype=np.int64, count=n)
    indices = np.concatenate(features) if features else np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(n) % batch_size, lengths)
    for array in (indices, rows, labels):
        array.flags.writeable = False
    offsets = [0, *np.cumsum(lengths).tolist()]
    edges = [*range(0, max(n, 1), batch_size), n]
    return [
        MiniBatch(indices[offsets[a] : offsets[b]], rows[offsets[a] : offsets[b]], labels[a:b])
        for a, b in zip(edges, edges[1:])
    ]


def pack_examples(examples: list[Example]) -> MiniBatch:
    """Pack examples, in order, with their class labels."""
    return _packed([ex.features() for ex in examples], [ex.label for ex in examples], len(examples) or 1)[0]


def pack(buckets, labels=None, dimension: int = HASH_BUCKETS) -> MiniBatch:
    """Pack caller-supplied bucket collections, one per example.

    Each collection is reduced to its sorted distinct buckets; every bucket
    must lie in ``[0, dimension)``. ``labels`` default to 0, for batches
    only the predictor reads.
    """
    features = [np.unique(np.asarray(list(b), dtype=np.int64)) for b in buckets]
    if any(f.size and (f[0] < 0 or f[-1] >= dimension) for f in features):
        raise ValueError("bucket index out of range")
    return _packed(features, np.zeros(len(features)) if labels is None else labels, len(features) or 1)[0]


def is_int(value) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite JSON number: an ``is_int`` or a finite ``float``."""
    return (is_int(value) or isinstance(value, float)) and math.isfinite(value)


def read_json_fields(path: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object stored at ``path``. Raises
    ValueError if the file holds something other than an object or lacks a key."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"missing key(s): {', '.join(map(repr, missing))}")
    return [payload[key] for key in keys]


def _checked_label(label, line_no: int) -> int:
    if not is_int(label):
        raise ValueError(f"line {line_no}: label must be an integer, got {label!r}")
    if label not in (0, 1):
        raise ValueError(f"line {line_no}: label out of range: {label}")
    return label


# the C scanner behind json.loads; a line it parses to the end needs no more
_scan_json = json.JSONDecoder().scan_once


def _json_record(line: str):
    """``json.loads(line)``: the scanner alone when the line is one bare JSON
    value, else ``json.loads`` itself, so what is accepted and every error
    message stay its own. (A line the scanner fails on from its first
    character fails in ``json.loads`` at the same place.)"""
    try:
        record, end = _scan_json(line, 0)
    except StopIteration:
        return json.loads(line)
    return record if end == len(line) else json.loads(line)


def load_dataset(path: str, format: str | None = None, header: bool = False) -> list[Example]:
    """Read a JSONL or TSV dataset into examples, preserving file order.

    JSONL records need a string ``text`` and an integer ``label`` in {0, 1};
    an optional ``text2`` string (absent or null means none) is appended to
    ``text`` with a space. TSV rows are ``text<TAB>label``; ``header=True``
    skips the first line. ``format`` defaults to the file extension.
    Every record is checked before any is featurized, in bulk.
    """
    if format is None:
        suffix = str(path).rsplit(".", 1)[-1].lower()
        if suffix in ("jsonl", "tsv"):
            format = suffix
        else:
            raise ValueError(f"cannot infer format from {path!r}; pass format='jsonl' or 'tsv'")
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format: {format!r}")

    texts: list[str] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if header and line_no == 1 and format == "tsv":
                continue
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if format == "jsonl":
                try:
                    record = _json_record(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {line_no}: malformed JSON record: {exc}") from exc
                if not isinstance(record, dict) or "text" not in record or "label" not in record:
                    raise ValueError(f"line {line_no}: record must have 'text' and 'label' fields")
                text = record["text"]
                if not isinstance(text, str):
                    raise ValueError(f"line {line_no}: 'text' must be a string")
                text2 = record.get("text2")
                if text2 is not None:
                    if not isinstance(text2, str):
                        raise ValueError(f"line {line_no}: 'text2' must be a string")
                    text = text + " " + text2
                label = record["label"]
            else:
                if "\t" not in line:
                    raise ValueError(f"line {line_no}: expected 'text<TAB>label'")
                text, raw_label = line.rsplit("\t", 1)
                try:
                    label = int(raw_label)
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: label not an integer: {raw_label!r}") from exc
            texts.append(text)
            labels.append(_checked_label(label, line_no))
    return _featurized(texts, labels)


def write_jsonl(examples: list[Example], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"text": ex.text, "label": ex.label}) + "\n")


def make_batches(
    examples: list[Example],
    batch_size: int,
    seed: int = 0,
    shuffle: bool = True,
) -> list[MiniBatch]:
    """Partition examples into ordered minibatches; the final one may be short.

    The permutation is fully determined by ``seed`` when ``shuffle`` is on.
    The corpus is packed once; every batch is a view of the same arrays.
    """
    if not examples:
        raise ValueError("no examples to batch")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = np.random.default_rng(seed).permutation(len(examples)) if shuffle else range(len(examples))
    ordered = [examples[i] for i in order]
    return _packed([ex.features() for ex in ordered], [ex.label for ex in ordered], batch_size)


def generate_toy_corpus(
    num_examples: int,
    duplication: int = 5,
    noise_rate: float = 0.05,
    seed: int = 0,
    class_vocab: int = 800,
    shared_vocab: int = 800,
    min_tokens: int = 6,
    max_tokens: int = 14,
    indicative_prob: float = 0.2,
) -> list[Example]:
    """Synthesize a redundant binary-classification corpus.

    About ``num_examples / duplication`` unique texts are drawn, each token
    coming from a class-indicative vocabulary with probability
    ``indicative_prob`` and otherwise from a shared filler vocabulary. Every
    unique text is repeated ``duplication`` times (so a trainer has genuine
    redundancy to exploit), each copy's label is flipped independently with
    probability ``noise_rate``, and the result is shuffled. Fully seeded.
    """
    if num_examples <= 0:
        raise ValueError("num_examples must be positive")
    if duplication < 1:
        raise ValueError("duplication must be >= 1")
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError("noise_rate must be in [0, 1)")
    if class_vocab < 1 or shared_vocab < 1:
        raise ValueError("class_vocab and shared_vocab must be >= 1")
    if not 0 <= min_tokens <= max_tokens:
        raise ValueError("token counts must satisfy 0 <= min_tokens <= max_tokens")
    if not 0.0 <= indicative_prob <= 1.0:
        raise ValueError("indicative_prob must be in [0, 1]")
    rng = np.random.default_rng(seed)
    num_unique = max(1, int(round(num_examples / duplication)))

    uniques: list[tuple[str, int]] = []
    for _ in range(num_unique):
        y = int(rng.integers(0, 2))
        length = int(rng.integers(min_tokens, max_tokens + 1))
        words = []
        for _ in range(length):
            if rng.random() < indicative_prob:
                prefix = "pos" if y == 1 else "neg"
                words.append(f"{prefix}{int(rng.integers(class_vocab))}")
            else:
                words.append(f"w{int(rng.integers(shared_vocab))}")
        uniques.append((" ".join(words), y))

    texts_labels: list[tuple[str, int]] = []
    for copy in range(num_examples):
        text, y = uniques[copy % num_unique]
        label = y
        if noise_rate > 0.0 and rng.random() < noise_rate:
            label = 1 - y
        texts_labels.append((text, label))

    order = rng.permutation(len(texts_labels))
    return _featurized([texts_labels[i][0] for i in order], [texts_labels[i][1] for i in order])
