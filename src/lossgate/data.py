"""Dataset ingestion, tokenization, hashed bag-of-words features, and batching.

Text is reduced to presence bits over a fixed 2**18-bucket hash space so no
vocabulary pass is needed; everything downstream stays single-pass.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

HASH_BUCKETS = 1 << 18

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, dropping the punctuation."""
    return _TOKEN_RE.findall(text.lower())


def hash_bucket(token: str) -> int:
    """Stable 64-bit hash of a token, folded into [0, HASH_BUCKETS).

    Uses blake2b so the mapping is identical across runs, platforms, and
    interpreter hash seeds.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % HASH_BUCKETS


def vectorize(tokens: list[str]) -> np.ndarray:
    """Presence bits of a token list: its sorted, distinct hash buckets.

    Set semantics on purpose: duplicate tokens collapse to one bit, matching
    a Bernoulli feature model.
    """
    return np.array(sorted({hash_bucket(t) for t in tokens}), dtype=np.int64)


@dataclass
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


@dataclass(frozen=True)
class MiniBatch:
    """Examples packed for the model and the predictor alike.

    ``indices`` concatenates every example's sorted, distinct buckets and
    ``rows`` names the example each index belongs to, so per-example sums are
    one ``np.bincount(rows, weights, minlength=len(batch))``. ``index`` is the
    batch's run-level ordinal.
    """

    indices: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    index: int

    def __len__(self) -> int:
        return self.labels.size


def _packed(features: list[np.ndarray], labels, index: int) -> MiniBatch:
    lengths = [f.size for f in features]
    indices = np.concatenate(features) if features else np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(len(features)), lengths)
    return MiniBatch(indices, rows, np.asarray(labels, dtype=np.int64).reshape(len(features)), index)


def pack_examples(examples: list[Example], index: int = 0) -> MiniBatch:
    """Pack examples, in order, with their class labels."""
    return _packed([ex.features() for ex in examples], [ex.label for ex in examples], index)


def pack(buckets, labels=None, index: int = 0, dimension: int = HASH_BUCKETS) -> MiniBatch:
    """Pack caller-supplied bucket collections, one per example.

    Each collection is reduced to its sorted distinct buckets; every bucket
    must lie in ``[0, dimension)``. ``labels`` default to 0, for batches
    only the predictor reads.
    """
    features = [np.unique(np.asarray(list(b), dtype=np.int64)) for b in buckets]
    if any(f.size and (f[0] < 0 or f[-1] >= dimension) for f in features):
        raise ValueError("bucket index out of range")
    return _packed(features, np.zeros(len(features)) if labels is None else labels, index)


def _example_from_fields(text: str, label, line_no: int) -> Example:
    if not isinstance(label, int) or isinstance(label, bool):
        raise ValueError(f"line {line_no}: label must be an integer, got {label!r}")
    if label not in (0, 1):
        raise ValueError(f"line {line_no}: label out of range: {label}")
    return Example(text=text, tokens=tokenize(text), label=label)


def load_dataset(path: str, format: str | None = None, header: bool = False) -> list[Example]:
    """Read a JSONL or TSV dataset into examples, preserving file order.

    JSONL records need a string ``text`` and an integer ``label`` in {0, 1};
    an optional ``text2`` is appended to ``text`` with a space. TSV rows are
    ``text<TAB>label``; ``header=True`` skips the first line. ``format``
    defaults to the file extension.
    """
    if format is None:
        suffix = str(path).rsplit(".", 1)[-1].lower()
        if suffix in ("jsonl", "tsv"):
            format = suffix
        else:
            raise ValueError(f"cannot infer format from {path!r}; pass format='jsonl' or 'tsv'")
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format: {format!r}")

    examples: list[Example] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if header and line_no == 1 and format == "tsv":
                continue
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if format == "jsonl":
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {line_no}: malformed JSON record: {exc}") from exc
                if not isinstance(record, dict) or "text" not in record or "label" not in record:
                    raise ValueError(f"line {line_no}: record must have 'text' and 'label' fields")
                text = record["text"]
                if not isinstance(text, str):
                    raise ValueError(f"line {line_no}: 'text' must be a string")
                if isinstance(record.get("text2"), str):
                    text = text + " " + record["text2"]
                examples.append(_example_from_fields(text, record["label"], line_no))
            else:
                if "\t" not in line:
                    raise ValueError(f"line {line_no}: expected 'text<TAB>label'")
                text, raw_label = line.rsplit("\t", 1)
                try:
                    label = int(raw_label)
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: label not an integer: {raw_label!r}") from exc
                examples.append(_example_from_fields(text, label, line_no))
    return examples


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
    """
    if not examples:
        raise ValueError("no examples to batch")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(examples))
        ordered = [examples[i] for i in order]
    else:
        ordered = list(examples)
    return [
        pack_examples(ordered[start : start + batch_size], index=m)
        for m, start in enumerate(range(0, len(ordered), batch_size))
    ]


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
    return [
        Example(text=texts_labels[i][0], tokens=tokenize(texts_labels[i][0]), label=texts_labels[i][1])
        for i in order
    ]
