#!/usr/bin/env python3
"""Train the bag-of-words Naive Bayes predictor online and watch it learn.

A fresh predictor fails open (it never discards data before seeing both
classes). As labelled batches stream in, its loss measured on each batch
BEFORE updating on it drops; once the windowed mean is low, it is
trustworthy enough to veto forward passes on its own.
"""

from collections import deque

import numpy as np

from lossgate import NaiveBayesModel, generate_toy_corpus, pack_examples

corpus = generate_toy_corpus(3000, duplication=5, noise_rate=0.0, seed=1)

# label-pure batches so each batch has an unambiguous train-worthiness label
rng = np.random.default_rng(1)
by_label = {0: [ex for ex in corpus if ex.label == 0], 1: [ex for ex in corpus if ex.label == 1]}
batches = []
for label, pool in by_label.items():
    for start in range(0, len(pool) - 8, 8):
        batches.append((pack_examples(pool[start : start + 8]), label))
order = rng.permutation(len(batches))

predictor = NaiveBayesModel()
# the last 8 predictor losses, as the trainer keeps them for its stage-2 switch
window = deque(maxlen=8)

print("fresh predictor decision:", predictor.predict_batch(pack_examples(corpus[:1])))

for m, pick in enumerate(order[:150]):
    batch, label = batches[pick]
    if predictor.has_both_classes:
        window.append(predictor.loss(batch, [label] * len(batch)))
    predictor.update(batch, label)
    if m in (1, 5, 20, 60, 149):
        full = len(window) == window.maxlen
        shown = f"{sum(window) / window.maxlen:.4f}" if full else "window not full"
        print(f"batch {m:3d}  windowed predictor loss: {shown}")

held_batch, held_label = batches[order[150]]
decision, p1 = predictor.predict_batch(held_batch)
print(f"\nheld-out batch with true label {held_label}: decision={decision} mean posterior={p1:.3f}")
print("examples seen per class:", predictor.class_counts.tolist())
