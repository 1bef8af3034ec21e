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

A batch has one label, the integer 0 or 1 by ``data.checked_label``, the
rule a dataset's labels are loaded by: ``update(batch, label)`` counts it,
``loss(batch, label)`` is its mean negative log posterior and
``predict_batch(batch)`` decides whether it is worth a forward pass.
``loss``, ``predict_batch`` and ``posterior`` share one negative log
posterior, ``log(1 + e^-s)`` for label 1 and ``log(1 + e^s)`` for 0. On a
batch of a few examples a numpy call costs more than its arithmetic, so the
per-batch path makes few: a query is about ten (the gather, two lookups, a
``bincount`` into rows, in-place ufuncs and one ``np.add.reduce``) plus,
after an update, a rebuild of five or six per changed class; an update is
twelve (a sort that finds the distinct buckets, gathers and scatter-adds
into the counts and the histogram, one count of zeros for new vocabulary and
one maximum). The class totals are a pair of Python ints. Each float is
computed by the same IEEE operations in the same order as the formulas above
spell out, which the tests check bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .data import HASH_BUCKETS, MiniBatch, checked_label, checked_positive, pack

# entries a model's log table and count histogram start with; each is
# rebuilt at twice the size once a class total or count reaches its end
_LOG_TABLE_SIZE = 256


class NaiveBayesModel:
    def __init__(self, smoothing_alpha: float = 1.0):
        self.smoothing_alpha = checked_positive("smoothing_alpha", smoothing_alpha)
        # examples counted under class 0 and class 1
        self.class_counts = [0, 0]
        # count + 1 of a bucket either class has counted (the vocabulary), 0 elsewhere
        self._bucket_counts = np.zeros((2, HASH_BUCKETS), dtype=np.int64)
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
    def has_both_classes(self) -> bool:
        return self.class_counts[0] > 0 and self.class_counts[1] > 0

    def bucket_count(self, label: int, bucket: int) -> int:
        return max(int(self._bucket_counts[label, bucket]) - 1, 0)

    def update(self, batch: MiniBatch, label: int) -> None:
        """Count one batch of examples under ``label``, the integer 0 or 1 (a bool
        or float raises before any count changes). Pure accumulation."""
        checked_label(label)
        n = batch.labels.size
        if n == 0:
            return
        self.class_counts[label] += n
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
        return self._bias + np.bincount(batch.rows, weights=w, minlength=batch.labels.size)

    def _rebuild_bias(self) -> None:
        """Rebuild ``b``, and ``G_c`` and ``absent_c`` of each class an update changed."""
        if self.class_counts == [0, 0]:
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

    def _neg_log_posteriors(self, batch: MiniBatch, label: int) -> np.ndarray:
        """``-log P(label | x)`` per example in a new array: ``log(1 + e^-s)`` for label 1, ``log(1 + e^s)`` for 0."""
        s = self._scores(batch)
        if label == 1:
            np.negative(s, out=s)
        return np.logaddexp(0.0, s, out=s)

    def posterior(self, features) -> float:
        """P(train-worthy | features) for one example's buckets, strictly inside (0, 1)."""
        return float(np.exp(-self._neg_log_posteriors(pack([features]), 1)[0]))

    def predict_batch(self, batch: MiniBatch) -> tuple[int, float | None]:
        """Batch-level decision: 1 iff the mean per-example posterior is at
        least 0.5, returned with that mean.

        Fails open (decision 1, no probability) until both classes have been
        seen, so an untrained predictor never discards data. An empty batch
        raises in every state.
        """
        n = batch.labels.size
        if n == 0:
            raise ValueError("empty batch")
        if not self.has_both_classes:
            return 1, None
        # p1 = exp(-log(1 + e^-s)), computed in place
        p1 = self._neg_log_posteriors(batch, 1)
        np.negative(p1, out=p1)
        np.exp(p1, out=p1)
        mean_p1 = float(np.add.reduce(p1)) / n  # p1.mean(), bit for bit, without its overhead
        return (1 if mean_p1 >= 0.5 else 0), mean_p1

    def loss(self, batch: MiniBatch, label: int) -> float:
        """Mean negative log posterior of ``label``, the batch's one label: the
        integer 0 or 1, checked as ``update`` checks it, before any scoring."""
        checked_label(label)
        n = batch.labels.size
        if n == 0:
            raise ValueError("empty batch")
        return float(np.add.reduce(self._neg_log_posteriors(batch, label))) / n  # .mean(), bit for bit

