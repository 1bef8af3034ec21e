"""Bernoulli Naive Bayes over bag-of-words buckets, trained online.

It predicts whether a batch is worth training on (label 1: loss at or above
the gate) without running the target model. Laplace smoothing ``alpha`` is
applied to both the per-bucket likelihoods and the class priors, so
posteriors stay strictly inside (0, 1) even when only one class has been
seen. Absent-feature terms are restricted to buckets the model has observed;
unseen buckets contribute the same factor to both classes and cancel.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np
from scipy.special import logsumexp

from .data import HASH_BUCKETS, MiniBatch, pack


def make_label(batch_loss: float, gate: float) -> int:
    """Train-worthiness label: 1 iff the loss is at or above the gate.

    The boundary goes to 1, the exact complement of the skip rule's strict
    less-than.
    """
    return 1 if batch_loss >= gate else 0


class NaiveBayesModel:
    def __init__(self, smoothing_alpha: float = 1.0, dimension: int = HASH_BUCKETS):
        if smoothing_alpha <= 0:
            raise ValueError("smoothing_alpha must be positive")
        self.smoothing_alpha = float(smoothing_alpha)
        self.dimension = int(dimension)
        self.class_counts = np.zeros(2, dtype=np.int64)
        self._bucket_counts = np.zeros((2, self.dimension), dtype=np.int64)
        self._seen: set[int] = set()
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
            # indices within one example are unique, so this counts
            # "number of examples containing the bucket"
            np.add.at(self._bucket_counts[label], batch.indices, 1)
            self._seen.update(batch.indices.tolist())
        self._cache = None

    def _tables(self):
        """Smoothed log-probability tables over the observed vocabulary."""
        if self._cache is None:
            alpha = self.smoothing_alpha
            vocab = np.fromiter(sorted(self._seen), dtype=np.int64, count=len(self._seen))
            denom = self.class_counts.astype(np.float64) + 2.0 * alpha
            log_prior = np.log(self.class_counts + alpha) - np.log(self.class_counts.sum() + 2.0 * alpha)
            if vocab.size:
                theta = (self._bucket_counts[:, vocab] + alpha) / denom[:, None]
                log_theta = np.log(theta)
                log_one_minus = np.log1p(-theta)
                absent_sum = log_one_minus.sum(axis=1)
            else:
                log_theta = np.zeros((2, 0))
                log_one_minus = np.zeros((2, 0))
                absent_sum = np.zeros(2)
            self._cache = (vocab, log_prior, log_theta, log_one_minus, absent_sum)
        return self._cache

    def _batch_log_posteriors(self, batch: MiniBatch) -> np.ndarray:
        """(n, 2) array of log P(class | features), one row per example."""
        if not self.queryable:
            raise ValueError("untrained predictor: no examples seen")
        vocab, log_prior, log_theta, log_one_minus, absent_sum = self._tables()
        n = len(batch)
        joint = np.tile(log_prior + absent_sum, (n, 1))
        idx = batch.indices
        if vocab.size and idx.size:
            # keep only query buckets the model has actually observed;
            # unknown buckets cancel between the classes
            pos = np.searchsorted(vocab, idx)
            in_range = pos < vocab.size
            hit = np.zeros(idx.size, dtype=bool)
            hit[in_range] = vocab[pos[in_range]] == idx[in_range]
            contrib = (log_theta - log_one_minus)[:, pos[hit]]
            rows = batch.rows[hit]
            for c in (0, 1):
                joint[:, c] += np.bincount(rows, weights=contrib[c], minlength=n)
        return joint - logsumexp(joint, axis=1, keepdims=True)

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
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    model = NaiveBayesModel(smoothing_alpha=payload["alpha"], dimension=payload["dimension"])
    model.class_counts = np.array(payload["class_counts"], dtype=np.int64)
    for label in (0, 1):
        for bucket, count in payload["token_counts"][str(label)]:
            model._bucket_counts[label, int(bucket)] = int(count)
            model._seen.add(int(bucket))
    return model
