"""Target classifier: logistic regression over hashed bag-of-words features.

Forward and backward passes are strictly separated so either can be skipped
on its own, and the whole thing is deterministic: zero-initialized weights,
plain SGD, fixed tie-breaking. The initial loss on any batch is exactly
ln 2.

The per-example loss is ``log(1 + exp(-y s))`` on the label-signed score
(``y = +1`` for label 1, ``-1`` for label 0): one ``logaddexp`` per batch.
On small batches each numpy call costs more than its arithmetic, so a pass
makes only the calls its math needs. ``forward`` is a gather and a
``bincount`` for the scores, one finiteness check, the signed ``logaddexp``,
``expit`` and a sum; ``backward`` checks only the scalar bias gradient, the
sum of every coefficient, before its ``np.add.at`` scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import HASH_BUCKETS, MiniBatch, checked_positive, checked_size


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

    def __init__(self, learning_rate: float = 0.5, dimension: int = HASH_BUCKETS):
        self.learning_rate = checked_positive("learning_rate", learning_rate)
        self.weights = np.zeros(checked_size("dimension", dimension), dtype=np.float64)
        self.bias = 0.0
        self.step_count = 0

    def _scores(self, batch: MiniBatch) -> np.ndarray:
        weights = self.weights[batch.indices]
        return self.bias + np.bincount(batch.rows, weights=weights, minlength=len(batch))

    def forward(self, batch: MiniBatch) -> ForwardResult:
        """Mean cross-entropy over the batch; the model is not touched."""
        if len(batch) == 0:
            raise ValueError("batch is empty")
        scores = self._scores(batch)
        if not np.isfinite(scores).all():
            raise RuntimeError("model diverged: non-finite prediction scores")
        # CE = log(1 + exp(-y s)) with y = +1 for label 1 and -1 for label 0
        losses = np.logaddexp(0.0, np.where(batch.labels == 1, -scores, scores))
        probs = expit(scores)
        return ForwardResult(
            per_example_losses=losses,
            batch_loss=float(losses.sum()) / len(batch),
            per_example_probs=probs,
            batch=batch,
            model_step=self.step_count,
        )

    def batch_gradient(self, result: ForwardResult) -> BatchGradient:
        batch = result.batch
        coef = (result.per_example_probs - batch.labels) / len(batch)
        return BatchGradient(indices=batch.indices, values=coef[batch.rows], bias_grad=float(coef.sum()))

    def backward(self, result: ForwardResult) -> None:
        """One SGD step on the forward result's batch. Rejects stale results."""
        if result.model_step != self.step_count:
            raise RuntimeError("stale forward result: model was updated since forward")
        grad = self.batch_gradient(result)
        # bias_grad sums every coefficient and values repeats some of them, so
        # one finite sum proves every value finite
        if not math.isfinite(grad.bias_grad):
            raise RuntimeError("model diverged: non-finite gradient")
        np.add.at(self.weights, grad.indices, -self.learning_rate * grad.values)
        self.bias -= self.learning_rate * grad.bias_grad
        self.step_count += 1

    def evaluate(self, batch: MiniBatch) -> float:
        """Accuracy under argmax prediction; score ties go to class 0."""
        if len(batch) == 0:
            raise ValueError("no examples to evaluate")
        preds = (self._scores(batch) > 0.0).astype(np.int64)
        return float(np.mean(preds == batch.labels))

