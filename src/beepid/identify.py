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


def uncovered(observed: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """True where an id has a beep slot that went unobserved, shape (..., n_ids).

    ``observed`` holds traces of shape (..., T) and ``patterns`` the ids'
    patterns, shape (n_ids, T); an id is identified exactly where this is
    False. One boolean matrix product tests every trace and id at once.
    """
    # Boolean rather than float: a float product goes through BLAS, whose
    # worker threads spin on a second core during long runs.
    return ~observed @ patterns.T


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
    shorter than 2 leaves the traces as they are.
    """
    if filter_len < 2:
        return unions
    heard_count = np.cumsum(unions, axis=-2, dtype=np.int32)
    heard_count[..., filter_len:, :] = (
        heard_count[..., filter_len:, :] - heard_count[..., :-filter_len, :]
    )
    return heard_count > 0


def filter_push(recent: np.ndarray, trace: np.ndarray, filter_len: int) -> np.ndarray:
    """The online window: ``trace`` appended to the ``recent`` rows, then the last filter_len rows.

    Start from an empty (0, T) array; ``filter_apply(window, filter_len)[-1]``
    is then the current observation. A trace of another length is refused.
    """
    if filter_len < 1:
        raise ValueError(f"filter_len must be >= 1, got {filter_len}")
    return np.vstack((recent, trace))[-filter_len:]
