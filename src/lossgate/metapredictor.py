"""Bernoulli Naive Bayes over bag-of-words buckets, trained online.

It predicts whether a batch is worth training on (label 1: loss at or above
the gate) without running the target model. Laplace smoothing ``alpha`` is
applied to both the per-bucket likelihoods and the class priors, so
posteriors stay strictly inside (0, 1) even when only one class has been
seen. Absent-feature terms are restricted to buckets the model has observed;
unseen buckets contribute the same factor to both classes and cancel.

A query uses the model's log-odds form (Bernoulli Naive Bayes is a linear
classifier): ``s = log P(1 | x) - log P(0 | x) = b + sum_{j in x, j seen} w_j``.
With ``n_cj`` the count of bucket ``j`` under class ``c``, ``N_c`` the class
total and ``L[k] = log(k + alpha)``,

    w_j = (L[n_1j] - L[N_1 - n_1j]) - (L[n_0j] - L[N_0 - n_0j])
    b   = L[N_1] - L[N_0] + absent_1 - absent_0,
    absent_c = sum_{j seen} (L[N_c - n_cj] - log(N_c + 2 alpha)).

Every count is an integer, so ``L`` is one cached table, regrown when a class
total outgrows it, and no query computes a logarithm per bucket. ``w`` is
gathered for the batch's buckets only. ``b`` is cached; the first query after
an update recomputes it, and recomputes ``absent_c`` with one gather over the
sorted observed vocabulary for each class the update changed (its own class,
plus the other one when it brought a bucket new to the vocabulary).
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

from .data import HASH_BUCKETS, MiniBatch, is_finite, is_int, pack

# entries of the log table a model starts with; a query after a class total
# reaches its size rebuilds it at twice that total
_LOG_TABLE_SIZE = 256


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
        # _log[k] = log(k + alpha) for every count k up to the largest class total
        self._log = np.log(np.arange(_LOG_TABLE_SIZE) + self.smoothing_alpha)
        # absent_c per class and the log-odds bias b; None once an update changes them
        self._absent = [None, None]
        self._bias = None

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
        # buckets neither class has counted yet join the vocabulary
        before = np.take(self._bucket_counts, batch.indices, axis=1)
        new = batch.indices[~np.logical_or(before[0], before[1])]
        # indices within one example are unique, so this counts
        # "number of examples containing the bucket"
        np.add.at(self._bucket_counts[label], batch.indices, 1)
        self._absent[label] = self._bias = None
        if new.size:
            new = np.unique(new)
            self._vocab = np.insert(self._vocab, np.searchsorted(self._vocab, new), new)
            # a new bucket adds an absent term to the other class too
            self._absent[1 - label] = None

    def _scores(self, batch: MiniBatch) -> np.ndarray:
        """Log-odds ``log P(1 | x) - log P(0 | x)``, one per example."""
        if not self.queryable:
            raise ValueError("untrained predictor: no examples seen")
        totals = self.class_counts
        if self._bias is None:
            top = int(totals.max())
            if top >= self._log.size:
                self._log = np.log(np.arange(2 * (top + 1)) + self.smoothing_alpha)
            for c in (0, 1):
                if self._absent[c] is None:
                    # one term per observed bucket, each normalised before the sum
                    seen = self._bucket_counts[c].take(self._vocab)
                    norm = math.log(totals[c] + 2.0 * self.smoothing_alpha)
                    self._absent[c] = float((self._log.take(totals[c] - seen) - norm).sum())
            self._bias = float(self._log[totals[1]] - self._log[totals[0]] + self._absent[1] - self._absent[0])
        counts = np.take(self._bucket_counts, batch.indices, axis=1)
        gain = self._log.take(counts) - self._log.take(totals[:, None] - counts)
        # a bucket neither class has counted is outside the vocabulary and cancels
        w = np.where(np.logical_or(counts[0], counts[1]), gain[1] - gain[0], 0.0)
        return self._bias + np.bincount(batch.rows, weights=w, minlength=len(batch))

    def _batch_log_posteriors(self, batch: MiniBatch) -> np.ndarray:
        """(n, 2) array of log P(class | features), one row per example."""
        s = self._scores(batch)
        return np.stack([-np.logaddexp(0.0, s), -np.logaddexp(0.0, -s)], axis=1)

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
        p1 = np.exp(-np.logaddexp(0.0, -self._scores(batch)))
        mean_p1 = float(p1.sum()) / len(batch)  # p1.mean(), bit for bit, without its overhead
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
        s = self._scores(batch)
        # -log P(1 | x) = log(1 + e^-s) and -log P(0 | x) = log(1 + e^s)
        return float(np.logaddexp(0.0, np.where(np.asarray(labels) == 1, -s, s)).mean())


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
