"""Automatic loss threshold: a windowed moving average of recent batch losses.

The threshold is only defined once the window holds a full ``window_size``
losses, and once frozen it never moves again.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .data import checked_positive, checked_size, is_real


def make_label(batch_loss: float, gate: float) -> int:
    """Train-worthiness label: 1 iff the loss is at or above the gate.

    The boundary goes to 1: a batch skips its backward only when its loss is
    strictly below the gate.
    """
    return 1 if batch_loss >= gate else 0


class ThresholdState:
    def __init__(self, window_size: int, skip_margin_gamma: float = 1.0):
        self.window_size = checked_size("window_size", window_size)
        self.skip_margin_gamma = checked_positive("skip_margin_gamma", skip_margin_gamma)
        self._window: deque[float] = deque(maxlen=self.window_size)
        self._frozen_value: float | None = None

    @property
    def frozen(self) -> bool:
        return self._frozen_value is not None

    @property
    def window_full(self) -> bool:
        return len(self._window) == self.window_size

    @property
    def l_low(self) -> float | None:
        """Mean of the last ``window_size`` losses; None until the window fills."""
        if self._frozen_value is not None:
            return self._frozen_value
        if not self.window_full:
            return None
        return sum(self._window) / self.window_size

    def observe(self, loss: float) -> None:
        """Push one batch loss, evicting the oldest once the window is full."""
        if self.frozen:
            raise ValueError("threshold frozen: no further losses accepted")
        if not (is_real(loss) and 0 <= loss < math.inf):
            raise ValueError(f"loss must be finite and non-negative, got {loss!r}")
        self._window.append(float(loss))

    def variance(self) -> float | None:
        """Sample variance (n-1 denominator) of the window; None until full.

        Raises RuntimeError when it overflows: losses that large mean the
        model diverged, and the gate could not be trusted.
        """
        if not self.window_full:
            return None
        if self.window_size == 1:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            var = float(np.var(np.array(self._window), ddof=1))
        if not math.isfinite(var):
            raise RuntimeError("model diverged: non-finite loss window variance")
        return var

    def freeze(self) -> None:
        """Fix the threshold at the window mean. Idempotent.

        The window's variance is checked first, so a diverged window raises
        and leaves the state unfrozen.
        """
        if self.frozen:
            return
        if not self.window_full:
            raise ValueError("cannot freeze with a partial window")
        self.variance()
        self._frozen_value = self.l_low

    @property
    def skip_boundary(self) -> float:
        """The effective gate value: skip_margin_gamma * l_low."""
        value = self.l_low
        if value is None:
            raise ValueError("threshold undefined: window has never been full")
        return self.skip_margin_gamma * value
