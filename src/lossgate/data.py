"""Dataset ingestion, tokenization, hashed bag-of-words features, and batching.

Text is reduced to presence bits over a fixed 2**18-bucket hash space so no
vocabulary pass is needed; everything downstream stays single-pass.

A loaded or generated corpus is a ``Corpus``: arrays, not examples. It holds
the distinct texts in first-seen order, a content id and a label per example,
and a read-only CSR block (``ptr``, ``buckets``) of each distinct text's
sorted, distinct buckets. ``load_dataset`` parses and checks each distinct
line once; then the distinct texts are featurized in one pass: each is
tokenized once, its tokens' buckets are streamed into one array of ``(text,
bucket)`` keys as they are read, each distinct token is hashed once and the
keys are sorted once. No token list outlives its text. A text of ASCII
letters, digits and spaces is split on its spaces without the token pattern,
which gives the same tokens. An ``Example`` is its text, its label and its
buckets; indexing or iterating a corpus builds one on demand, sharing its
content's ``text`` string and bucket view. An ``Example`` built directly runs
``vectorize``, the one-example definition, on its tokens, and
``Corpus.from_examples`` turns a list of them into an equal corpus.
``Example`` and ``MiniBatch`` are slotted.

Batching is one gather: the examples' CSR rows, in the seeded permutation's
order, are taken from ``buckets`` into four read-only arrays (buckets,
in-batch rows, labels and ``positions``, the examples' corpus positions), and
every ``MiniBatch`` is a slice of them. A corpus keeps the partition
``make_batches`` last cut from it, so consecutive runs that share a batch
size and seed gather it once; it is freed with the corpus or replaced by the
next partition cut under another key. ``pack`` is ``pack_examples`` of
bucket-only examples. The value rules are written here once: ``checked_size``,
``checked_positive`` and ``checked_label``, the integer 0 or 1 that
``load_dataset`` and the predictor require of a label, as a corpus does of
each of its labels.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

HASH_BUCKETS = 1 << 18

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, dropping the punctuation.

    The tokens are the runs of letters and digits of the lowercased text. A
    lowercased text of ASCII letters, digits and spaces alone is split on its
    spaces without the pattern, which gives the same tokens.
    """
    lowered = text.lower()
    if lowered.isascii() and lowered.replace(" ", "").isalnum():
        return lowered.split()
    return _TOKEN_RE.findall(lowered)


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
    a Bernoulli feature model. The one-example definition, which one-pass
    featurization (``_featurized``) reproduces for a whole corpus.
    """
    return np.array(sorted(set(map(hash_bucket, tokens))), dtype=np.int64)


class Example:
    """One labelled text: the unit every filtering decision is made over. An
    example is its text, its label and its sorted, distinct buckets.

    ``Example(text, tokens, label)`` hashes its tokens at once and keeps
    only their buckets. ``tokens`` is ``tokenize(text)``, made on each read;
    the benchmark's tracing test rebuilds examples from it.
    """

    __slots__ = ("text", "label", "_buckets")

    def __init__(self, text: str, tokens: list[str], label: int):
        self.text, self.label = text, label
        self._buckets = vectorize(tokens)

    @property
    def tokens(self) -> list[str]:
        return tokenize(self.text)

    def features(self) -> np.ndarray:
        """Sorted distinct hash buckets of the tokens, computed at construction."""
        return self._buckets

    def __eq__(self, other):
        if other.__class__ is not Example:
            return NotImplemented
        return (self.text, self.label) == (other.text, other.label) and np.array_equal(self._buckets, other._buckets)

    def __repr__(self) -> str:
        return f"Example(text={self.text!r}, label={self.label!r})"


def _example(text: str, label: int, buckets: np.ndarray) -> Example:
    """A corpus example, which shares its content's text and bucket view."""
    example = Example.__new__(Example)
    example.text, example.label, example._buckets = text, label, buckets
    return example


def _labels(labels, n: int) -> np.ndarray:
    """``labels`` as ``n`` int64 values; raises unless each is the integer 0
    or 1. A numpy integer passes and a bool or a float does not, as in
    ``load_dataset``; an empty array of any dtype is no labels."""
    array = np.asarray(labels)
    integers = array.dtype.kind in "iu" and (
        isinstance(labels, np.ndarray) or not any(isinstance(label, (bool, np.bool_)) for label in labels)
    )
    if array.size and not (integers and ((array == 0) | (array == 1)).all()):
        raise ValueError("labels must be 0 or 1")
    return array.reshape(n).astype(np.int64)


class Corpus(Sequence):
    """An immutable sequence of examples, held as arrays:

    - ``texts``, a tuple: each content's text. A loaded or generated corpus
      has one content per distinct text, in first-seen order;
    - ``content`` and ``labels``: each example's content id and 0/1 label;
    - ``ptr`` and ``buckets``: a CSR block, so content ``c``'s sorted,
      distinct buckets are ``buckets[ptr[c]:ptr[c + 1]]``.

    The arrays are read-only int64 views; the arrays a caller passes keep
    their flags. The constructor raises ValueError unless ``content``,
    ``ptr`` and ``buckets`` are integer arrays, every content id names a
    text, ``ptr`` holds ``len(texts) + 1`` non-decreasing offsets from 0 to
    ``len(buckets)`` and every bucket lies in ``[0, HASH_BUCKETS)``.
    Indexing or iterating builds an ``Example`` on demand, which shares its
    content's ``text`` string and one read-only bucket view with the other
    examples of that content. A slice is a corpus over the same texts and
    CSR block. A corpus equals a list, tuple or corpus of equal examples.

    A corpus keeps the latest partition ``make_batches`` cut from it, until
    the corpus is freed or a call with another key replaces it: about 4.8 MB
    (3.5 MB of arrays) for the 20000-example benchmark corpus at batch size
    8. A slice starts without one.
    """

    __slots__ = ("texts", "content", "labels", "ptr", "buckets", "_views", "_batches")

    def __init__(self, texts, content: np.ndarray, labels, ptr: np.ndarray, buckets: np.ndarray):
        self.texts = tuple(texts)
        n = len(self.texts)
        if not all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in (content, ptr, buckets)):
            raise ValueError("content, ptr and buckets must be integer arrays")
        if content.size and not 0 <= content.min() <= content.max() < n:
            raise ValueError(f"content ids must lie in [0, {n})")
        if not (ptr.shape == (n + 1,) and ptr[0] == 0 and ptr[-1] == buckets.size and (ptr[1:] >= ptr[:-1]).all()):
            raise ValueError("ptr must hold len(texts) + 1 non-decreasing offsets from 0 to len(buckets)")
        if buckets.size and not (0 <= buckets.min() and buckets.max() < HASH_BUCKETS):
            raise ValueError(f"buckets must lie in [0, {HASH_BUCKETS})")
        self.content, self.ptr, self.buckets = (np.asarray(a, dtype=np.int64).view() for a in (content, ptr, buckets))
        self.labels = _labels(labels, content.size)
        for array in (self.content, self.labels, self.ptr, self.buckets):
            array.flags.writeable = False
        self._views: list[np.ndarray] | None = None
        # the partition make_batches last cut: ((batch_size, seed), batches)
        self._batches: tuple[tuple[int, int], list[MiniBatch]] | None = None

    @classmethod
    def from_examples(cls, examples: Sequence[Example]) -> Corpus:
        """The examples as a corpus with one content per example, holding
        each example's text, label and buckets, so it equals ``examples``; a
        corpus is returned as it is."""
        if isinstance(examples, Corpus):
            return examples
        n = len(examples)
        features = [ex.features() for ex in examples]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, features), dtype=np.int64, count=n), out=ptr[1:])
        buckets = np.concatenate(features) if features else np.empty(0, dtype=np.int64)
        return cls([ex.text for ex in examples], np.arange(n), [ex.label for ex in examples], ptr, buckets)

    def _bucket_views(self) -> list[np.ndarray]:
        """Each content's slice of ``buckets``, made once for all contents."""
        if self._views is None:
            ptr, buckets = self.ptr.tolist(), self.buckets
            self._views = [buckets[start:end] for start, end in zip(ptr, ptr[1:])]
        return self._views

    def __len__(self) -> int:
        return self.content.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Corpus(self.texts, self.content[index], self.labels[index], self.ptr, self.buckets)
        content = int(self.content[index])
        return _example(self.texts[content], int(self.labels[index]), self._bucket_views()[content])

    def __iter__(self) -> Iterator[Example]:
        content = self.content.tolist()
        views = map(self._bucket_views().__getitem__, content)
        return map(_example, map(self.texts.__getitem__, content), self.labels.tolist(), views)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Corpus, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class _BucketMemo(dict):
    """Token to ``hash_bucket(token)``, hashed on a token's first lookup, so
    a repeated token is one dict hit."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        bucket = self[token] = hash_bucket(token)
        return bucket


def _featurized(texts: list[str], content, labels) -> Corpus:
    """The corpus of distinct ``texts`` with these content ids and labels,
    featurized in one pass: each text is tokenized once, and its tokens'
    buckets, read through a memo of this call, are streamed as keys ``row *
    HASH_BUCKETS + bucket`` into one array, sorted once. ``hash_bucket`` runs
    once per distinct token, and no token list outlives its text. The CSR
    block is each text's ``vectorize``: its sorted, distinct buckets."""
    bucket = _BucketMemo().__getitem__
    lengths: list[int] = []

    def buckets_of(text: str):
        tokens = tokenize(text)
        lengths.append(len(tokens))
        return map(bucket, tokens)

    keys = np.fromiter(chain.from_iterable(map(buckets_of, texts)), dtype=np.int64)
    row_starts = np.arange(len(texts) + 1, dtype=np.int64) * HASH_BUCKETS
    keys += np.repeat(row_starts[:-1], np.array(lengths, dtype=np.int64))
    keys.sort()
    distinct = np.empty(keys.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    ptr = np.searchsorted(keys, row_starts)
    keys %= HASH_BUCKETS
    # the corpus holds read-only views, and nothing else holds these arrays
    ptr.flags.writeable = keys.flags.writeable = False
    return Corpus(texts, np.asarray(content, dtype=np.int64), labels, ptr, keys)


@dataclass(frozen=True, slots=True, eq=False)
class MiniBatch:
    """Examples packed for the model and the predictor alike.

    ``indices`` concatenates every example's sorted, distinct buckets and
    ``rows`` names the example each index belongs to, so per-example sums are
    one ``np.bincount(rows, weights, minlength=len(batch))``. ``labels`` and
    ``positions`` hold each example's label and its position in the corpus
    it was cut from. The arrays are read-only views, shared with the other
    batches packed alongside. A batch compares and hashes by identity.
    """

    indices: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return self.labels.size


def _gathered(corpus: Corpus, positions: np.ndarray, batch_size: int):
    """Cut the corpus's examples at ``positions``, in order, into batches of
    ``batch_size`` (the last may be short; no examples give one empty batch),
    each a slice of the same four read-only arrays. The examples' buckets are
    one ``take`` from the corpus's CSR block."""
    content, labels, ptr = corpus.content[positions], corpus.labels[positions], corpus.ptr
    starts = ptr[content]
    lengths = ptr[content + 1] - starts
    ends = np.cumsum(lengths)
    # bucket k of an example that packs from offset o sits at its start + k - o
    offsets = np.repeat(starts - ends + lengths, lengths)
    offsets += np.arange(offsets.size)
    indices = corpus.buckets.take(offsets)
    n = content.size
    rows = np.repeat(np.arange(n) % batch_size, lengths)
    for array in (indices, rows, labels, positions):
        array.flags.writeable = False
    edges = [*range(0, max(n, 1), batch_size), n]
    cuts = np.concatenate(([0], ends))[edges].tolist()
    return [
        MiniBatch(indices[start:end], rows[start:end], labels[a:b], positions[a:b])
        for a, b, start, end in zip(edges, edges[1:], cuts, cuts[1:])
    ]


def pack_examples(examples: Sequence[Example]) -> MiniBatch:
    """Pack examples, in order, with their class labels."""
    corpus = Corpus.from_examples(examples)
    return _gathered(corpus, np.arange(len(corpus)), len(corpus) or 1)[0]


def pack(buckets) -> MiniBatch:
    """Pack caller-supplied bucket collections, one per example, into a
    batch only the predictor reads: ``pack_examples`` of examples with an
    empty text, label 0 and the collection's sorted distinct buckets.

    Every bucket must be an integer (``is_int``) in ``[0, HASH_BUCKETS)``.
    """
    given = [list(b) for b in buckets]
    for bucket in chain.from_iterable(given):
        if not is_int(bucket):
            raise ValueError(f"buckets must be integers, got {bucket!r}")
        if not 0 <= bucket < HASH_BUCKETS:
            raise ValueError("bucket index out of range")
    return pack_examples([_example("", 0, np.unique(np.array(b, dtype=np.int64))) for b in given])


def is_int(value) -> bool:
    """An integer that is not a ``bool``: an ``int`` or a numpy integer."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def is_real(value) -> bool:
    """A real number that is not a ``bool``: an ``int``, a ``float`` or a numpy number of either kind."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def checked_size(name: str, value) -> int:
    """``value`` as an int if it is an integer (``is_int``) in [1, 2**63 - 1], the sizes numpy indexes with,
    else ValueError naming ``name``."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    if value >= 2**63:
        raise ValueError(f"{name} must be <= 2**63 - 1, got {value}")
    return int(value)


def checked_positive(name: str, value) -> float:
    """``value`` as a float if it is a real number, not a bool, in ``(0, inf)``, else ValueError naming ``name``."""
    if not is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


def _checked_seed(seed) -> int:
    """``seed`` if it is an integer (``is_int``) of at least 0, else ValueError naming it."""
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def checked_label(label) -> int:
    """``label`` if it is the integer (``is_int``) 0 or 1, else ValueError: a
    numpy integer passes, a bool or a float does not."""
    if not is_int(label):
        raise ValueError(f"label must be an integer, got {label!r}")
    if label not in (0, 1):
        raise ValueError(f"label out of range: {label}")
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


def _parsed(line: str, format: str, line_no: int) -> tuple[str, int] | None:
    """The ``(text, label)`` of one dataset line, or None for a blank line.
    Raises ValueError naming ``line_no`` on a bad record."""
    line = line.rstrip("\n")
    if not line.strip():
        return None
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
    try:
        return text, checked_label(label)
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {exc}") from None


def load_dataset(path: str, header: bool = False) -> Corpus:
    """Read a JSONL or TSV dataset into a corpus, preserving file order.

    The extension names the format: ``.jsonl`` or ``.tsv``, in any case.
    JSONL records need a string ``text`` and an integer ``label`` in {0, 1};
    an optional ``text2`` string (absent or null means none) is appended to
    ``text`` with a space. TSV rows are ``text<TAB>label``; ``header=True``
    skips the first line. A UTF-8 byte-order mark at the start of the file
    is dropped. Each distinct line is parsed and checked once, and every line
    is checked before the distinct texts are featurized, in one pass.
    """
    format = str(path).rsplit(".", 1)[-1].lower()
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"cannot tell the format of {path!r}: name it .jsonl or .tsv")

    # each distinct line is a row of (line_content, line_label), and each
    # example names its line's row; equal texts share one content id
    row_of: dict[str, int] = {}
    content_of: dict[str, int] = {}
    line_content: list[int] = []
    line_label: list[int] = []
    rows: list[int] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        numbered = enumerate(fh, start=1)
        if header and format == "tsv":
            next(numbered, None)
        for line_no, line in numbered:
            row = row_of.get(line)
            if row is None:
                parsed = _parsed(line, format, line_no)
                if parsed is None:
                    continue
                text, label = parsed
                row = row_of[line] = len(line_label)
                line_content.append(content_of.setdefault(text, len(content_of)))
                line_label.append(label)
            rows.append(row)
    rows = np.array(rows, dtype=np.int64)
    return _featurized(list(content_of), np.array(line_content, dtype=np.int64)[rows], np.array(line_label)[rows])


def write_jsonl(examples: Sequence[Example], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"text": ex.text, "label": ex.label}) + "\n")


def make_batches(examples: Sequence[Example], batch_size: int, seed: int = 0) -> list[MiniBatch]:
    """Partition examples into minibatches, in the order of the permutation
    ``seed`` fully determines; the final one may be short.

    Every batch is a view of the same four arrays, gathered from the
    corpus's CSR block through the permutation in one ``take``; the
    permutation itself is the fourth, ``positions``. The arguments are
    checked on every call; a corpus then returns a new list over the batches
    it kept from the last call with the same ``batch_size`` and ``seed``, and
    otherwise keeps the partition it gathers in their place. Sharing is safe:
    a batch is frozen and its arrays are read-only.
    """
    corpus = Corpus.from_examples(examples)
    if not corpus:
        raise ValueError("no examples to batch")
    batch_size, seed = checked_size("batch_size", batch_size), _checked_seed(seed)
    if corpus._batches is None or corpus._batches[0] != (batch_size, seed):
        order = np.random.default_rng(seed).permutation(len(corpus))
        corpus._batches = (batch_size, seed), _gathered(corpus, order, batch_size)
    return list(corpus._batches[1])


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
) -> Corpus:
    """Synthesize a redundant binary-classification corpus.

    About ``num_examples / duplication`` unique texts are drawn, each token
    coming from a class-indicative vocabulary with probability
    ``indicative_prob`` and otherwise from a shared filler vocabulary. Every
    unique text is repeated ``duplication`` times (so a trainer has genuine
    redundancy to exploit), each copy's label is flipped independently with
    probability ``noise_rate``, and the result is shuffled. Fully seeded.
    """
    num_examples = checked_size("num_examples", num_examples)
    duplication = checked_size("duplication", duplication)
    if not (is_real(noise_rate) and 0.0 <= noise_rate < 1.0):
        raise ValueError("noise_rate must be in [0, 1)")
    class_vocab = checked_size("class_vocab", class_vocab)
    shared_vocab = checked_size("shared_vocab", shared_vocab)
    for name, value in (("min_tokens", min_tokens), ("max_tokens", max_tokens)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= min_tokens <= max_tokens:
        raise ValueError("token counts must satisfy 0 <= min_tokens <= max_tokens")
    if not (is_real(indicative_prob) and 0.0 <= indicative_prob <= 1.0):
        raise ValueError("indicative_prob must be in [0, 1]")
    rng = np.random.default_rng(_checked_seed(seed))
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
    content_of: dict[str, int] = {}
    content = [content_of.setdefault(texts_labels[i][0], len(content_of)) for i in order]
    return _featurized(list(content_of), content, [texts_labels[i][1] for i in order])
