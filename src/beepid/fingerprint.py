"""Deterministic beep-pattern generation.

A device derives its beep schedule for one period of T slots from its
numeric identifier: the identifier seeds a SplitMix64 stream, and slot t
beeps when the t-th 64-bit draw falls below floor(p * 2^64). Transmitter
and receiver regenerate the identical pattern from the id alone, so no
pattern ever has to be communicated.

SplitMix64's state after t steps is ``seed + t * gamma`` mod 2^64
(Steele, Lea & Flood, OOPSLA 2014), so every draw of every id is the
output function applied to one state, and a roster's patterns are a
single array expression.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Device identifiers are opaque unsigned 64-bit integers.
DeviceId = int


def _mix(z):
    """SplitMix64's output function of a state, on a Python int or a uint64 array.

    The masks are no-ops on uint64 arrays, whose products wrap by
    themselves, and keep Python ints to 64 bits.
    """
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _words(ids, count: int) -> np.ndarray:
    """The first ``count`` SplitMix64 output words seeded by each id, shape (..., count)."""
    try:
        seeds = np.asarray(ids, dtype=np.uint64)
    except OverflowError:
        raise ValueError(f"device ids must lie in [0, 2^64), got {ids!r}") from None
    states = seeds[..., None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _mix(states)


def beep_threshold(p: float) -> int:
    """Integer threshold realizing ``rand(0,1) <= p`` as ``u < threshold``.

    Exact for any double p in [0, 1]: scaling by 2^64 only shifts the
    exponent. p = 1 maps to 2^64, above every u64, so it always beeps.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"beep probability must be in [0, 1], got {p}")
    if p >= 1.0:
        return 1 << 64
    return int(p * 2.0**64)


def generate_pattern(ids, p: float, period_slots: int) -> np.ndarray:
    """The beep patterns the devices with ``ids`` transmit, slot 1 first.

    Each id seeds the PRNG directly; slot t (1-indexed) beeps iff the t-th
    draw u satisfies u < floor(p * 2^64). A single id gives a bool row of
    shape (period_slots,), a sequence of n ids an (n, period_slots) matrix.
    """
    if period_slots < 1:
        raise ValueError("period_slots must be >= 1")
    threshold = beep_threshold(p)
    words = _words(ids, period_slots)
    if threshold > MASK64:
        return np.ones(words.shape, dtype=bool)
    return words < threshold


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive an independent child seed from a master seed and coordinates.

    Feeds each coordinate through the SplitMix64 output function, so child
    streams for distinct coordinate tuples are decorrelated and the mapping
    is order-independent across grid iteration schemes.
    """
    state = master_seed & MASK64
    for idx in indices:
        state = _mix((state + _GAMMA * (idx + 2)) & MASK64)
    return state
