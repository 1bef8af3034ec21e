#!/usr/bin/env python3
"""Watch the automatic loss gate form on a synthetic training-loss stream.

The gate is the moving average of the last K batch losses. Early in training
losses fall quickly, so the average trails above them. As in the trainer,
the gate freezes once the warmup budget of batches is spent and the window
is full; batches whose loss falls strictly below it then skip their
backward pass.
"""

import numpy as np

from lossgate import ThresholdState, make_label

rng = np.random.default_rng(0)
K = 16
WARMUP_BATCHES = 64

# a decaying loss curve with noise, like a warmup on redundant data
steps = np.arange(160)
losses = 0.25 + 0.65 * np.exp(-steps / 18.0) + rng.normal(0, 0.004, size=steps.size).clip(-0.01, 0.01)

gate = ThresholdState(window_size=K)
for m, loss in enumerate(losses, start=1):
    gate.observe(float(loss))
    if m % 10 == 0 and gate.l_low is not None:
        print(f"batch {m:3d}  loss {loss:.4f}  moving avg {gate.l_low:.4f}")
    if m >= WARMUP_BATCHES and gate.window_full:
        variance = gate.variance()
        gate.freeze()
        print(f"\nwarmup budget spent at batch {m}: gate frozen at {gate.l_low:.4f} (window variance {variance:.2e})")
        break

print("\nskip decisions against the frozen gate:")
for probe in (0.20, 0.28, gate.skip_boundary, 0.40, 0.70):
    verdict = "train" if make_label(probe, gate.skip_boundary) else "skip backward"
    print(f"  batch loss {probe:.4f} -> {verdict}")
