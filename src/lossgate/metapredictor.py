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

    w_j = G_1[n_1j] - G_0[n_0j],   G_c[k] = L[k] - L[N_c - k],
    b   = L[N_1] - L[N_0] + absent_1 - absent_0,
    absent_c = sum_{j seen} (L[N_c - n_cj] - log(N_c + 2 alpha))
             = sum_v H_c[v] (L[N_c - v] - log(N_c + 2 alpha)),

where ``H_c[v]`` is the number of observed buckets class ``c`` has counted
``v`` times. Every count is an integer, so ``L`` is one cached table, regrown
when a class total outgrows it, and no query computes a logarithm per
bucket. ``update`` keeps ``H_c`` current from the batch's distinct buckets:
each moves from its old count to its new one, and a bucket new to the
vocabulary first joins both classes at count 0. The first query after an
update rebuilds ``absent_c`` and the gain table ``G_c`` of each class the
update changed, in O(largest count) rather than O(vocabulary).

An observed bucket's count is stored as count + 1 and an unseen bucket's as
0. ``H_c`` and ``G_c`` are indexed by that stored value, and ``G_c`` at 0 is
0, so a query is one gather of the batch's stored counts plus one lookup per
class, and an unseen bucket adds exactly 0 to ``s``.

A batch has one label, the integer 0 or 1: ``update(batch, label)`` counts
it and ``loss(batch, label)`` is the batch's mean negative log posterior of
it; ``predict_batch(batch)`` decides whether the batch is worth a forward
pass. On a batch of a few examples a numpy call costs more than its
arithmetic, so the per-batch path makes few: a query is about ten (the
gather, two lookups, a ``bincount`` into rows, in-place ufuncs and one
``np.add.reduce``) plus, after an update, a rebuild of five or six per
changed class; an update is twelve (a sort that finds the distinct buckets,
gathers and scatter-adds into the counts and the histogram, one count of
zeros for new vocabulary and one maximum). The class totals are a pair of
Python ints. Each float is computed by the same IEEE operations in the same
order as the formulas above spell out, which the tests check bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .data import HASH_BUCKETS, MiniBatch, is_finite, is_int, pack, read_json_fields

# entries a model's log table and count histogram start with; each is
# rebuilt at twice the size once a class total or count reaches its end
_LOG_TABLE_SIZE = 256

# the batch-level decision policies ``predict_batch`` takes
DECISION_POLICIES = ("mean", "vote")


def _check_label(label) -> None:
    """Raise unless ``label`` is the integer 0 or 1; a numpy integer passes,
    a bool or a float does not. A plain int skips the slower ABC check."""
    if (type(label) is not int and (isinstance(label, bool) or not isinstance(label, numbers.Integral))
            or label not in (0, 1)):
        raise ValueError("label must be the integer 0 or 1")


class NaiveBayesModel:
    def __init__(self, smoothing_alpha: float = 1.0, dimension: int = HASH_BUCKETS):
        if not 0 < smoothing_alpha < math.inf:
            raise ValueError("smoothing_alpha must be positive and finite")
        self.smoothing_alpha = float(smoothing_alpha)
        self.dimension = int(dimension)
        # examples counted under class 0 and class 1
        self.class_counts = [0, 0]
        # count + 1 of a bucket either class has counted (the vocabulary), 0 elsewhere
        self._bucket_counts = np.zeros((2, self.dimension), dtype=np.int64)
        # _hist[c, k + 1] = vocabulary buckets class c has counted k times, for
        # k up to _top[c], the largest count; indexed like _bucket_counts
        self._hist = np.zeros((2, _LOG_TABLE_SIZE), dtype=np.int64)
        self._top = [0, 0]
        # _log[k] = log(k + alpha) for every count k up to the largest class total
        self._log = np.log(np.arange(_LOG_TABLE_SIZE) + self.smoothing_alpha)
        # per class, the gain table G_c by stored count and absent_c, and the
        # log-odds bias b; None once an update changes them
        self._gain = [None, None]
        self._absent = [None, None]
        self._bias = None

    @property
    def total_examples(self) -> int:
        return self.class_counts[0] + self.class_counts[1]

    @property
    def queryable(self) -> bool:
        return self.total_examples > 0

    @property
    def has_both_classes(self) -> bool:
        return self.class_counts[0] > 0 and self.class_counts[1] > 0

    def bucket_count(self, label: int, bucket: int) -> int:
        return max(int(self._bucket_counts[label, bucket]) - 1, 0)

    def update(self, batch: MiniBatch, label: int) -> None:
        """Count one batch of examples under ``label``, the integer 0 or 1 (a bool
        or float raises before any count changes). Pure accumulation."""
        _check_label(label)
        if len(batch) == 0:
            return
        self.class_counts[label] += len(batch)
        # indices within one example are unique, so a bucket appears in
        # ``run`` once per example that contains it; ``buckets`` are distinct
        run = np.sort(batch.indices)
        first = np.empty(run.size, dtype=bool)
        first[:1] = True
        np.not_equal(run[1:], run[:-1], out=first[1:])
        buckets = run[first]
        own = self._bucket_counts[label]
        was = own.take(buckets)
        if np.count_nonzero(was) < was.size:
            # a bucket new to the vocabulary joins both classes at count 0 (stored 1)
            new = buckets[was == 0]
            self._bucket_counts[:, new] = 1
            self._hist[:, 1] += new.size
            self._absent[1 - label] = None
            np.maximum(was, 1, out=was)
        np.add.at(own, run, 1)
        now = own.take(buckets)
        top = int(now.max(initial=1))
        if top >= self._hist.shape[1]:
            self._hist = np.pad(self._hist, ((0, 0), (0, 2 * top - self._hist.shape[1])))
        hist = self._hist[label]
        np.subtract.at(hist, was, 1)
        np.add.at(hist, now, 1)
        if top > self._top[label] + 1:
            self._top[label] = top - 1
        self._absent[label] = self._bias = None

    def _scores(self, batch: MiniBatch) -> np.ndarray:
        """Log-odds ``log P(1 | x) - log P(0 | x)``, one per example, in a new
        array the caller may overwrite."""
        if self._bias is None:
            self._rebuild_bias()
        stored = self._bucket_counts.take(batch.indices, axis=1)
        w = self._gain[1].take(stored[1])
        w -= self._gain[0].take(stored[0])
        # not in place: a batch with no buckets gets integer zeros from bincount
        return self._bias + np.bincount(batch.rows, weights=w, minlength=len(batch))

    def _rebuild_bias(self) -> None:
        """Rebuild ``b``, and ``G_c`` and ``absent_c`` of each class an update changed."""
        if not self.queryable:
            raise ValueError("untrained predictor: no examples seen")
        totals = self.class_counts
        largest = max(totals)
        if largest >= self._log.size:
            self._log = np.log(np.arange(2 * (largest + 1)) + self.smoothing_alpha)
        for c in (0, 1):
            if self._absent[c] is None:
                n, top = totals[c], self._top[c]
                rest = self._log[n - top:n + 1][::-1]  # rest[k] = L[N_c - k]
                gain = np.zeros(top + 2)
                np.subtract(self._log[:top + 1], rest, out=gain[1:])
                norm = math.log(n + 2.0 * self.smoothing_alpha)
                self._gain[c] = gain
                terms = rest - norm
                terms *= self._hist[c, 1:top + 2]
                self._absent[c] = float(np.add.reduce(terms))
        self._bias = float(self._log[totals[1]] - self._log[totals[0]] + self._absent[1] - self._absent[0])

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
        decisions); ties go to 1. An empty batch raises in every state.
        """
        if policy not in DECISION_POLICIES:
            raise ValueError(f"unknown decision policy: {policy!r}")
        if len(batch) == 0:
            raise ValueError("empty batch")
        if not self.has_both_classes:
            return 1, None
        # p1 = exp(-log(1 + e^-s)), computed in place
        p1 = self._scores(batch)
        np.negative(p1, out=p1)
        np.logaddexp(0.0, p1, out=p1)
        np.negative(p1, out=p1)
        np.exp(p1, out=p1)
        mean_p1 = float(np.add.reduce(p1)) / len(batch)  # p1.mean(), bit for bit, without its overhead
        if policy == "mean":
            decision = 1 if mean_p1 >= 0.5 else 0
        else:
            votes = int(np.count_nonzero(p1 >= 0.5))
            decision = 1 if 2 * votes >= len(batch) else 0
        return decision, mean_p1

    def loss(self, batch: MiniBatch, label: int) -> float:
        """Mean negative log posterior of ``label``, the batch's one label: the
        integer 0 or 1, checked as ``update`` checks it, before any scoring."""
        _check_label(label)
        if len(batch) == 0:
            raise ValueError("empty batch")
        # -log P(1 | x) = log(1 + e^-s) and -log P(0 | x) = log(1 + e^s);
        # the reduce / n is .mean(), bit for bit, without its overhead
        s = self._scores(batch)
        if label == 1:
            np.negative(s, out=s)
        np.logaddexp(0.0, s, out=s)
        return float(np.add.reduce(s)) / len(batch)


def save_predictor(model: NaiveBayesModel, path: str) -> None:
    """JSON checkpoint: class counts plus sparse per-class bucket counts."""
    counts = {}
    for label in (0, 1):
        stored = model._bucket_counts[label]
        counts[str(label)] = [[int(b), int(stored[b]) - 1] for b in np.flatnonzero(stored > 1)]
    payload = {
        "alpha": model.smoothing_alpha,
        "dimension": model.dimension,
        "class_counts": list(model.class_counts),
        "token_counts": counts,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_predictor(path: str) -> NaiveBayesModel:
    """Read a ``save_predictor`` checkpoint.

    Raises ValueError on a checkpoint no live model could have written: a
    payload that is not an object or lacks a key, an ``alpha`` that is not
    positive and finite, ``class_counts`` that are not two non-negative
    integers, ``token_counts`` that are not an object of two lists keyed
    ``"0"`` and ``"1"``, an entry that is not an integer pair, a bucket
    outside ``[0, dimension)``, or a bucket count that is negative or above
    its class total.
    """
    alpha, dimension, class_counts, token_counts = read_json_fields(
        path, "alpha", "dimension", "class_counts", "token_counts"
    )
    if not is_finite(alpha) or not alpha > 0:
        raise ValueError(f"alpha must be a positive finite number, got {alpha!r}")
    if not is_int(dimension) or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    if not (isinstance(class_counts, list) and len(class_counts) == 2
            and all(is_int(c) and c >= 0 for c in class_counts)):
        raise ValueError(f"class_counts must be two non-negative integers, got {class_counts!r}")
    if not (isinstance(token_counts, dict) and all(isinstance(token_counts.get(k), list) for k in ("0", "1"))):
        raise ValueError("token_counts must be an object with a list under each of '0' and '1'")
    model = NaiveBayesModel(smoothing_alpha=alpha, dimension=dimension)
    # the totals stay Python ints, as ``update`` keeps them
    model.class_counts = list(class_counts)
    for label in (0, 1):
        for entry in token_counts[str(label)]:
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
    vocab = np.flatnonzero(model._bucket_counts.any(axis=0))
    model._bucket_counts[:, vocab] += 1
    stored = model._bucket_counts[:, vocab]
    model._top = [int(row.max(initial=1)) - 1 for row in stored]
    size = max(_LOG_TABLE_SIZE, max(model._top) + 2)
    model._hist = np.stack([np.bincount(row, minlength=size) for row in stored])
    return model
