"""Receiver-side identification over the union channel.

The receiver only learns, per slot, whether any carrier energy was sensed.
A trace is a bool array of shape (..., T), slot 1 first: True where the
carrier was sensed. A candidate id is accepted when every slot of its
regenerated pattern is covered by the observation; a single beep expected
but not sensed rejects the candidate. Because collisions merge into the
union, concurrent beepers never mask each other, but a busy channel can
cover a silent candidate's pattern by accident.

An optional filter widens the observation by OR-ing the last m period
traces slot-by-slot before identification, trading false-negative
robustness (deep fades) against false positives on busy channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fingerprint import DeviceId, generate_pattern


@dataclass(frozen=True)
class IdSet:
    """Identification outcome: the candidate universe and the accepted subset."""

    candidates: tuple[DeviceId, ...]
    identified: tuple[DeviceId, ...]

    def __post_init__(self) -> None:
        if not set(self.identified) <= set(self.candidates):
            raise ValueError("identified ids must be a subset of the candidates")

    def __contains__(self, device_id: DeviceId) -> bool:
        return device_id in self.identified


_TILE_MULADDS = 1 << 18  # OpenBLAS runs sgemm on one thread up to 65536 x 4 multiply-adds


def uncovered(observed: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """True where an id has a beep slot that went unobserved, shape (..., n_ids).

    ``observed`` holds traces of shape (..., T) and ``patterns`` the ids'
    patterns, shape (n_ids, T); an id is identified exactly where this is
    False. A float32 matrix product counts each trace's unobserved beep
    slots per id, in tiles of ``_TILE_MULADDS // (T * max(n_ids, 16))`` whole
    traces, or one: a product within one BLAS thread, whose float32 tile
    holds at most 2^14 slots. The test is exact for any T and any tile:
    every addend is 0 or 1, so a sum is positive exactly when one addend is
    1, and rounding cannot take a positive sum of non-negative terms to 0.
    """
    traces = observed.reshape(math.prod(observed.shape[:-1]), observed.shape[-1])
    step = max(1, _TILE_MULADDS // (max(traces.shape[1], 1) * max(len(patterns), 16)))
    weights = patterns.T.astype(np.float32)
    missed = np.empty((len(traces), weights.shape[-1]), dtype=bool)
    for start in range(0, len(traces), step):
        tile = np.subtract(1, traces[start : start + step], dtype=np.float32)
        np.greater(tile @ weights, 0, out=missed[start : start + step])
    return missed.reshape(observed.shape[:-1] + missed.shape[-1:])


def identify(observed, candidates, p: float) -> IdSet:
    """Accept every candidate whose full pattern is covered by one trace of shape (T,).

    Candidate order is preserved. A candidate with an all-zero pattern is
    vacuously covered and therefore always accepted.
    """
    observed = np.asarray(observed, dtype=bool)
    if observed.ndim != 1:
        raise ValueError(f"identify takes one trace of shape (T,), got shape {observed.shape}")
    candidates = tuple(candidates)
    missed = uncovered(observed, generate_pattern(candidates, p, observed.shape[0]))
    accepted = tuple(device_id for device_id, miss in zip(candidates, missed) if not miss)
    return IdSet(candidates=candidates, identified=accepted)


def filter_apply(unions: np.ndarray, filter_len: int) -> np.ndarray:
    """Each period's observation: the OR of the last filter_len traces of (..., periods, T).

    The window is partial until filter_len traces have arrived; a filter
    shorter than 2 leaves the traces as they are. A copy of the traces is
    ORed with itself lagged by 1, 2, 4, ... periods, each OR doubling the
    window it holds, and last by the lag that takes the window to
    filter_len: ceil(log2 filter_len) in-place ORs. A period before a lag
    keeps its shorter window, which already reaches back to the first
    period, so partial windows are exact. numpy buffers the overlapping
    operands of each OR.
    """
    if filter_len < 2:
        return unions
    observed = np.array(unions, dtype=bool)
    window = 1
    while window < filter_len:
        lag = min(window, filter_len - window)
        observed[..., lag:, :] |= observed[..., :-lag, :]
        window += lag
    return observed


def filter_push(recent: np.ndarray, trace: np.ndarray, filter_len: int) -> np.ndarray:
    """The online window: ``trace`` appended to the ``recent`` rows, then the last filter_len rows.

    Start from an empty (0, T) array; ``filter_apply(window, filter_len)[-1]``
    is then the current observation. A trace of another length is refused.
    """
    if filter_len < 1:
        raise ValueError(f"filter_len must be >= 1, got {filter_len}")
    return np.vstack((recent, trace))[-filter_len:]
