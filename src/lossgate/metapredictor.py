"""Bernoulli Naive Bayes over bag-of-words buckets, trained online.

It predicts whether a batch is worth training on (label 1: loss at or above
the gate) without running the target model. Laplace smoothing ``alpha`` is
applied to both the per-bucket likelihoods and the class priors, so
posteriors stay strictly inside (0, 1) even when only one class has been
seen. Absent-feature terms are restricted to buckets the model has observed;
unseen buckets contribute the same factor to both classes and cancel.

The observed vocabulary is kept as a sorted bucket array, refreshed only when
an update brings a bucket not seen before, so a query after an update costs
one pass over that vocabulary plus the batch, never a pass over all
``dimension`` buckets.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

from .data import HASH_BUCKETS, MiniBatch, is_finite, is_int, pack


def _log_normalize(joint: np.ndarray) -> np.ndarray:
    """Subtract each row's log-sum-exp from an (n, 2) array of log joints.

    Two columns need no general reduction: with ``hi`` the larger entry and
    ``lo`` the smaller, the row sum is ``hi + log1p(exp(lo - hi))``, the same
    arithmetic ``scipy.special.logsumexp`` performs on two columns.
    """
    hi = joint.max(axis=1, keepdims=True)
    return joint - (np.log1p(np.exp(joint.min(axis=1, keepdims=True) - hi)) + hi)


class NaiveBayesModel:
    def __init__(self, smoothing_alpha: float = 1.0, dimension: int = HASH_BUCKETS):
        if not 0 < smoothing_alpha < math.inf:
            raise ValueError("smoothing_alpha must be positive and finite")
        self.smoothing_alpha = float(smoothing_alpha)
        self.dimension = int(dimension)
        self.class_counts = np.zeros(2, dtype=np.int64)
        self._bucket_counts = np.zeros((2, self.dimension), dtype=np.int64)
        # sorted buckets counted under either class
        self._vocab = np.zeros(0, dtype=np.int64)
        self._cache = None

    @property
    def total_examples(self) -> int:
        return int(self.class_counts.sum())

    @property
    def queryable(self) -> bool:
        return self.total_examples > 0

    @property
    def has_both_classes(self) -> bool:
        return bool(self.class_counts[0] > 0 and self.class_counts[1] > 0)

    def bucket_count(self, label: int, bucket: int) -> int:
        return int(self._bucket_counts[label, bucket])

    def update(self, batch: MiniBatch, label: int) -> None:
        """Count one batch of examples under ``label``. Pure accumulation."""
        if label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        if len(batch) == 0:
            return
        self.class_counts[label] += len(batch)
        if batch.indices.size:
            # buckets neither class has counted yet join the vocabulary
            new = batch.indices[~self._bucket_counts[:, batch.indices].any(axis=0)]
            # indices within one example are unique, so this counts
            # "number of examples containing the bucket"
            np.add.at(self._bucket_counts[label], batch.indices, 1)
            if new.size:
                new = np.unique(new)
                self._vocab = np.insert(self._vocab, np.searchsorted(self._vocab, new), new)
        self._cache = None

    def _tables(self):
        """Smoothed log-probability tables over the observed vocabulary."""
        if self._cache is None:
            alpha = self.smoothing_alpha
            vocab = self._vocab
            denom = self.class_counts.astype(np.float64) + 2.0 * alpha
            log_prior = np.log(self.class_counts + alpha) - np.log(self.class_counts.sum() + 2.0 * alpha)
            if vocab.size:
                theta = (self._bucket_counts[:, vocab] + alpha) / denom[:, None]
                log_one_minus = np.log1p(-theta)
                present_gain = np.log(theta) - log_one_minus
                absent_sum = log_one_minus.sum(axis=1)
            else:
                present_gain = np.zeros((2, 0))
                absent_sum = np.zeros(2)
            self._cache = (vocab, log_prior + absent_sum, present_gain)
        return self._cache

    def _batch_log_posteriors(self, batch: MiniBatch) -> np.ndarray:
        """(n, 2) array of log P(class | features), one row per example."""
        if not self.queryable:
            raise ValueError("untrained predictor: no examples seen")
        vocab, all_absent, present_gain = self._tables()
        n = len(batch)
        joint = np.empty((n, 2))
        joint[:] = all_absent
        idx = batch.indices
        if vocab.size and idx.size:
            # keep only query buckets the model has actually observed;
            # unknown buckets cancel between the classes
            pos = np.searchsorted(vocab, idx)
            in_range = pos < vocab.size
            hit = np.zeros(idx.size, dtype=bool)
            hit[in_range] = vocab[pos[in_range]] == idx[in_range]
            contrib = present_gain[:, pos[hit]]
            rows = batch.rows[hit]
            for c in (0, 1):
                joint[:, c] += np.bincount(rows, weights=contrib[c], minlength=n)
        return _log_normalize(joint)

    def log_posteriors(self, features) -> np.ndarray:
        """Log P(class | features) for one example's buckets; sums to 1 in probability."""
        return self._batch_log_posteriors(pack([features], dimension=self.dimension))[0]

    def posterior(self, features) -> float:
        """P(train-worthy | features), strictly inside (0, 1)."""
        return float(np.exp(self.log_posteriors(features)[1]))

    def predict_batch(self, batch: MiniBatch, policy: str = "mean") -> tuple[int, float | None]:
        """Batch-level decision from per-example posteriors.

        Fails open (decision 1, no probability) until both classes have been
        seen, so an untrained predictor never discards data. ``policy`` is
        "mean" (average posterior vs 0.5) or "vote" (majority of per-example
        decisions); ties go to 1.
        """
        if policy not in ("mean", "vote"):
            raise ValueError(f"unknown decision policy: {policy!r}")
        if not self.has_both_classes:
            return 1, None
        if len(batch) == 0:
            raise ValueError("empty batch")
        p1 = np.exp(self._batch_log_posteriors(batch)[:, 1])
        mean_p1 = float(p1.mean())
        if policy == "mean":
            decision = 1 if mean_p1 >= 0.5 else 0
        else:
            votes = int((p1 >= 0.5).sum())
            decision = 1 if 2 * votes >= len(batch) else 0
        return decision, mean_p1

    def loss(self, batch: MiniBatch, labels) -> float:
        """Mean negative log posterior assigned to ``labels``, one per example."""
        if len(batch) != len(labels):
            raise ValueError("features and labels differ in length")
        if len(batch) == 0:
            raise ValueError("empty batch")
        log_post = self._batch_log_posteriors(batch)
        picked = log_post[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)]
        return float(-picked.mean())


class PredictorLossWindow:
    """Last ``window_size`` predictor losses; the mean gates the stage switch."""

    def __init__(self, window_size: int):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.window_size = int(window_size)
        self._window: deque[float] = deque(maxlen=self.window_size)

    def push(self, loss: float) -> None:
        self._window.append(float(loss))

    @property
    def full(self) -> bool:
        return len(self._window) == self.window_size

    def mean(self) -> float | None:
        if not self.full:
            return None
        return sum(self._window) / self.window_size


def save_predictor(model: NaiveBayesModel, path: str) -> None:
    """JSON checkpoint: class counts plus sparse per-class bucket counts."""
    counts = {}
    for label in (0, 1):
        nonzero = np.flatnonzero(model._bucket_counts[label])
        counts[str(label)] = [[int(b), int(model._bucket_counts[label, b])] for b in nonzero]
    payload = {
        "alpha": model.smoothing_alpha,
        "dimension": model.dimension,
        "class_counts": [int(c) for c in model.class_counts],
        "token_counts": counts,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_predictor(path: str) -> NaiveBayesModel:
    """Read a ``save_predictor`` checkpoint.

    Raises ValueError on a checkpoint no live model could have written: an
    ``alpha`` that is not positive and finite, ``class_counts`` that are not
    two non-negative integers, an entry that is not an integer pair, a bucket
    outside ``[0, dimension)``, or a bucket count that is negative or above
    its class total.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    alpha, dimension, class_counts = payload["alpha"], payload["dimension"], payload["class_counts"]
    if not is_finite(alpha) or not alpha > 0:
        raise ValueError(f"alpha must be a positive finite number, got {alpha!r}")
    if not is_int(dimension) or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    if not (isinstance(class_counts, list) and len(class_counts) == 2
            and all(is_int(c) and c >= 0 for c in class_counts)):
        raise ValueError(f"class_counts must be two non-negative integers, got {class_counts!r}")
    model = NaiveBayesModel(smoothing_alpha=alpha, dimension=dimension)
    model.class_counts = np.array(class_counts, dtype=np.int64)
    for label in (0, 1):
        for entry in payload["token_counts"][str(label)]:
            if not (isinstance(entry, list) and len(entry) == 2 and all(map(is_int, entry))):
                raise ValueError(f"class {label} entry must be an integer [bucket, count] pair, got {entry!r}")
            bucket, count = entry
            if not 0 <= bucket < dimension:
                raise ValueError(f"class {label} bucket {bucket} outside [0, {dimension})")
            if not 0 <= count <= class_counts[label]:
                raise ValueError(
                    f"class {label} bucket {bucket} count {count} outside [0, {class_counts[label]}]"
                )
            model._bucket_counts[label, bucket] = count
    model._vocab = np.flatnonzero(model._bucket_counts.any(axis=0))
    return model
