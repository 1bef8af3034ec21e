"""Target classifier: logistic regression over hashed bag-of-words features.

Forward and backward passes are strictly separated so either can be skipped
on its own, and the whole thing is deterministic: zero-initialized weights,
plain SGD, fixed tie-breaking. The initial loss on any batch is exactly
ln 2.

The per-example loss is ``log(1 + exp(-y s))`` on the label-signed score
(``y = +1`` for label 1, ``-1`` for label 0): one ``logaddexp`` per batch.
On small batches each numpy call costs more than its arithmetic, so a pass
makes only the calls its math needs. ``forward`` is a ``take`` and a
``bincount`` for the scores, one finiteness check, the label-signed
``logaddexp`` in place, the sigmoid over the scores and one
``np.add.reduce``. ``backward`` shares the per-example coefficient
``(p - y) / n`` with ``batch_gradient``, sums it for the bias gradient (whose
finiteness covers every coefficient, so it is the one check), scales it by
``-learning_rate`` in place and scatters it onto each example's buckets with
``np.add.at``.
Every float is the same IEEE operation, in the same order, as in the plain
formulas (``losses.mean()``, ``-learning_rate * values``), which the tests
check bit for bit.

The sigmoid is ``1 / (1 + exp(-s))`` per score through ``math.exp``, the C
library's ``exp``, so the package needs numpy alone. That is the formula and
the ``exp`` of scipy's ``expit``, so the probabilities are the same bits
wherever both call the same libm, as on glibc; numpy's own ``np.exp`` rounds
differently on some hosts, so it is not used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import HASH_BUCKETS, MiniBatch, checked_positive


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-s))`` for each score, in a new array. Where ``-s``
    exceeds about 709.78 ``math.exp`` raises instead of returning inf, and
    the probability is 0.0, as the formula gives with an infinite ``exp``."""
    probs = []
    for s in scores.tolist():
        try:
            probs.append(1.0 / (1.0 + math.exp(-s)))
        except OverflowError:
            probs.append(0.0)
    return np.array(probs)


@dataclass
class ForwardResult:
    """Losses and probabilities for one batch, plus what backward needs."""

    per_example_losses: np.ndarray
    batch_loss: float
    per_example_probs: np.ndarray
    batch: MiniBatch
    model_step: int


@dataclass
class BatchGradient:
    """Sparse loss gradient: bucket indices may repeat across examples."""

    indices: np.ndarray
    values: np.ndarray
    bias_grad: float


class TargetModel:
    """Binary logistic regression with a dense weight per hash bucket."""

    def __init__(self, learning_rate: float = 0.5):
        self.learning_rate = checked_positive("learning_rate", learning_rate)
        self.weights = np.zeros(HASH_BUCKETS, dtype=np.float64)
        self.bias = 0.0
        self.step_count = 0

    def _scores(self, batch: MiniBatch) -> np.ndarray:
        weights = self.weights.take(batch.indices)
        # not in place: a batch with no buckets gets integer zeros from bincount
        return self.bias + np.bincount(batch.rows, weights=weights, minlength=batch.labels.size)

    def forward(self, batch: MiniBatch) -> ForwardResult:
        """Mean cross-entropy over the batch; the model is not touched."""
        n = batch.labels.size
        if n == 0:
            raise ValueError("batch is empty")
        scores = self._scores(batch)
        if not np.logical_and.reduce(np.isfinite(scores)):
            raise RuntimeError("model diverged: non-finite prediction scores")
        # CE = log(1 + exp(-y s)) with y = +1 for label 1 and -1 for label 0;
        # labels are 0 or 1, so they serve as the condition as they are
        losses = np.where(batch.labels, -scores, scores)
        np.logaddexp(0.0, losses, out=losses)
        return ForwardResult(
            per_example_losses=losses,
            batch_loss=float(np.add.reduce(losses)) / n,  # losses.mean(), bit for bit
            per_example_probs=_sigmoid(scores),
            batch=batch,
            model_step=self.step_count,
        )

    @staticmethod
    def _coefficients(result: ForwardResult) -> tuple[np.ndarray, float]:
        """d(batch loss) / d(score) per example, ``(p - y) / n``, in a new
        array, and their sum, the bias gradient."""
        labels = result.batch.labels
        coef = np.subtract(result.per_example_probs, labels)
        coef /= labels.size
        return coef, float(np.add.reduce(coef))

    def batch_gradient(self, result: ForwardResult) -> BatchGradient:
        coef, bias_grad = self._coefficients(result)
        return BatchGradient(indices=result.batch.indices, values=coef.take(result.batch.rows), bias_grad=bias_grad)

    def backward(self, result: ForwardResult) -> None:
        """One SGD step on the forward result's batch. Rejects stale results.

        The step is the one ``batch_gradient`` describes, bit for bit: each
        weight gets ``-learning_rate * value`` and the bias ``-learning_rate * bias_grad``.
        """
        if result.model_step != self.step_count:
            raise RuntimeError("stale forward result: model was updated since forward")
        coef, bias_grad = self._coefficients(result)
        # bias_grad sums every coefficient and the weights get some of them, so
        # one finite sum proves every step finite
        if not math.isfinite(bias_grad):
            raise RuntimeError("model diverged: non-finite gradient")
        # scaled before the gather: each entry is the same product either way
        coef *= -self.learning_rate
        np.add.at(self.weights, result.batch.indices, coef.take(result.batch.rows))
        self.bias -= self.learning_rate * bias_grad
        self.step_count += 1

    def evaluate(self, batch: MiniBatch) -> float:
        """Accuracy under argmax prediction; score ties go to class 0."""
        if len(batch) == 0:
            raise ValueError("no examples to evaluate")
        preds = (self._scores(batch) > 0.0).astype(np.int64)
        return float(np.mean(preds == batch.labels))

