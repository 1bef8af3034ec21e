"""Host-speed probe: puts wall times measured at different moments on one scale.

A shared 2-vCPU virtual machine (Intel Xeon) can run the same code at two
speeds about 1.6x apart and stays in either for seconds to minutes; neither
CPU time nor steal time shows it. A fixed piece of work shaped like the
program's hot paths (random gathers and scatter-adds over a 2**18 array,
small numpy calls, blake2b token hashing) slows down with it, so the probe
is timed just before and just after each measured interval, and the
interval is scaled by ``REFERENCE_S / mean(probe before, probe after)``:
seconds at the speed where the probe takes ``REFERENCE_S``.

This removes phases that last longer than one interval: over ten seeds it
brought the IQR/median of train-all ``run_s`` from 0.28 to 0.05. Calls of
several seconds also live through faster swings, which the probes at their
ends cannot see, so less of their spread goes away.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

# probe seconds on a quiet 2-vCPU Intel Xeon virtual machine
REFERENCE_S = 0.003
PROBE_REPEATS = 5


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._weights = np.zeros(1 << 18)
        self._rows = [rng.integers(0, 1 << 18, size=int(n)) for n in rng.integers(6, 15, size=800)]
        self._vocab = np.sort(rng.choice(1 << 18, size=5000, replace=False))
        self._tokens = [f"w{i}".encode() for i in range(400)]

    def _once(self) -> float:
        start = time.perf_counter()
        w = self._weights
        for k in range(0, len(self._rows), 8):
            batch = self._rows[k:k + 8]
            np.logaddexp(0.0, np.array([w[r].sum() for r in batch]))
            idx = np.concatenate(batch)
            np.add.at(w, idx, 1e-9)
            np.cumsum(np.searchsorted(self._vocab, idx))
        for token in self._tokens:
            int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "little") % (1 << 18)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Median time of the probe now."""
        return statistics.median(self._once() for _ in range(PROBE_REPEATS))


def adjusted(times: list[float], probes: list[float]) -> list[float]:
    """Each interval at reference host speed; ``probes[i]`` is taken just
    before ``times[i]`` and ``probes[i + 1]`` just after it."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each interval and one after the last")
    return [t * REFERENCE_S / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]
