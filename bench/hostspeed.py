"""Host speed, measured next to each timed operation.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes.  Two fixed kernels, one of interpreted Python float
arithmetic and one of numpy random draws and a bincount (the two kinds of
work fdcap does), are timed before and after every timed operation; the
operation's time is scaled by REFERENCE_S over their mean.  A timing then
reads in reference seconds: the seconds the operation would take on a host
that runs the kernels in REFERENCE_S, which is about what they take on a
2-core cloud VM at its usual speed.
"""
from __future__ import annotations

import math
import time

REFERENCE_S = 0.005          # python_kernel() + numpy_kernel(), nominal
PYTHON_REFERENCE_S = 0.0025  # python_kernel() alone, nominal


def python_kernel() -> float:
    """Seconds for a fixed loop of interpreted float arithmetic."""
    start = time.perf_counter()
    total = 0.0
    for i in range(20_000):
        total += math.sin(i)
    return time.perf_counter() - start


def numpy_kernel(rng) -> float:
    """Seconds for fixed numpy work: 1e5 Gamma draws and their bincount."""
    import numpy as np
    start = time.perf_counter()
    x = rng.gamma(1.0, 1.0, 100_000)
    np.bincount(rng.integers(0, 1000, x.size), weights=x, minlength=1000)
    return time.perf_counter() - start


class Calibrator:
    """Times both kernels on demand; ``scale(before, after)`` turns the
    kernel times around an operation into its factor to reference seconds."""

    def __init__(self):
        import numpy as np
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []

    def measure(self) -> float:
        seconds = python_kernel() + numpy_kernel(self._rng)
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_S / (0.5 * (before + after))
