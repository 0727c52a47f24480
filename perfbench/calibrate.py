"""Host speed reference: a fixed numpy kernel, timed between repetitions.

On a shared host the speed of a CPU-bound process drifts by 20-40% over
tens of seconds, and the drift slows the program and this kernel together.
run.py times the kernel right before and right after every repetition and
scales the repetition's times by ``NOMINAL_S / reference``, so that the
reported times read as if the host had run at its nominal speed throughout.
The kernel uses nothing from ``src/``, so a change to the program cannot
move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one kernel call on a 2-vCPU Intel Xeon VM at 2.1 GHz
# (Python 3, numpy's default PCG64 generator), when the host is quiet.
NOMINAL_S = 0.021
CALLS = 15
SHAPE = (5, 100_000)


def _kernel(rng: np.random.Generator) -> float:
    # The channel layer's own kind of work: complex normal draws and magnitudes.
    x = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
    return float(np.abs(x).sum())


def reference_s() -> float:
    """Median time of CALLS kernel calls, after one warm-up call."""
    rng = np.random.default_rng(0)
    _kernel(rng)
    times = []
    for _ in range(CALLS):
        started = time.perf_counter()
        _kernel(rng)
        times.append(time.perf_counter() - started)
    return statistics.median(times)
