"""Target classifier: logistic regression over hashed bag-of-words features.

Forward and backward passes are strictly separated so either can be skipped
on its own, and the whole thing is deterministic: zero-initialized weights,
plain SGD, fixed tie-breaking. The initial loss on any batch is exactly
ln 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import HASH_BUCKETS, MiniBatch


@dataclass
class ForwardResult:
    """Losses and probabilities for one batch, plus what backward needs."""

    per_example_losses: np.ndarray
    batch_loss: float
    per_example_probs: np.ndarray
    batch_index: int
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
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.weights = np.zeros(dimension, dtype=np.float64)
        self.bias = 0.0
        self.learning_rate = float(learning_rate)
        self.step_count = 0

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    def _scores(self, batch: MiniBatch) -> np.ndarray:
        weights = self.weights[batch.indices]
        return self.bias + np.bincount(batch.rows, weights=weights, minlength=len(batch))

    def forward(self, batch: MiniBatch) -> ForwardResult:
        """Mean cross-entropy over the batch; the model is not touched."""
        if len(batch) == 0:
            raise ValueError("batch is empty")
        scores = self._scores(batch)
        if not np.all(np.isfinite(scores)):
            raise RuntimeError("model diverged: non-finite prediction scores")
        labels = batch.labels
        # CE = log(1 + exp(-s)) for label 1, log(1 + exp(s)) for label 0
        losses = np.where(labels == 1, np.logaddexp(0.0, -scores), np.logaddexp(0.0, scores))
        probs = expit(scores)
        return ForwardResult(
            per_example_losses=losses,
            batch_loss=float(losses.mean()),
            per_example_probs=probs,
            batch_index=batch.index,
            model_step=self.step_count,
        )

    def batch_gradient(self, result: ForwardResult, batch: MiniBatch) -> BatchGradient:
        coef = (result.per_example_probs - batch.labels) / len(batch)
        return BatchGradient(indices=batch.indices, values=coef[batch.rows], bias_grad=float(coef.sum()))

    def backward(self, result: ForwardResult, batch: MiniBatch) -> None:
        """One SGD step from a forward result. Rejects stale results."""
        if result.model_step != self.step_count:
            raise RuntimeError("stale forward result: model was updated since forward")
        if result.batch_index != batch.index:
            raise RuntimeError("forward result does not belong to this batch")
        grad = self.batch_gradient(result, batch)
        if not np.all(np.isfinite(grad.values)) or not np.isfinite(grad.bias_grad):
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


def save_checkpoint(model: TargetModel, path: str) -> None:
    """Write the model as JSON: non-zero (bucket, weight) pairs plus scalars."""
    nonzero = np.flatnonzero(model.weights)
    payload = {
        "dimension": model.dimension,
        "learning_rate": model.learning_rate,
        "step_count": model.step_count,
        "bias": model.bias,
        "weights": [[int(b), float(model.weights[b])] for b in nonzero],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> TargetModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    model = TargetModel(learning_rate=payload["learning_rate"], dimension=payload["dimension"])
    model.bias = float(payload["bias"])
    model.step_count = int(payload["step_count"])
    for bucket, value in payload["weights"]:
        model.weights[int(bucket)] = float(value)
    return model
