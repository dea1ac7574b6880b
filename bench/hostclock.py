"""Host speed, from a fixed kernel that does not use crnbalance."""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


class HostClock:
    """Scales a time to a reference host speed.

    On a shared host the CPU's speed changes by up to 2x in phases of a few
    seconds, with wall and CPU time moving together, so a raw time says as
    much about the neighbours as about the program. The kernel runs between
    consecutive timed samples (items, set-up probes), and a sample is
    reported scaled to the speed at which the kernel takes ``REFERENCE_S``:
    ``scaled = raw * REFERENCE_S / mean(kernel before, kernel after)``.
    """

    REFERENCE_S = 0.02

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((40, 15))
        self._b = np.ones(40)
        self._u = np.linspace(-1.0, 1.0, 15)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel once and return its time."""
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1000):
            acc += Fraction(1, i)
        for _ in range(300):
            g = self._a @ np.exp(self._u) - self._b
            np.linalg.lstsq(self._a, g, rcond=None)
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def factor(self, before: float, after: float) -> float:
        """Scale for a time taken between two kernel samples."""
        return self.REFERENCE_S / (0.5 * (before + after))
