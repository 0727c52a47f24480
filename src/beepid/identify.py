"""Receiver-side identification over the union channel.

The receiver only learns, per slot, whether any carrier energy was sensed.
A candidate id is accepted when every slot of its regenerated pattern is
covered by the observation; a single beep expected but not sensed rejects
the candidate. Because collisions merge into the union, concurrent beepers
never mask each other, but a busy channel can cover a silent candidate's
pattern by accident.

An optional filter widens the observation by OR-ing the last m period
traces slot-by-slot before identification, trading false-negative
robustness (deep fades) against false positives on busy channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fingerprint import DeviceId, generate_pattern


@dataclass(frozen=True)
class ChannelTrace:
    """Per-slot union observation for one period: bit t-1 is slot t, 1 = carrier sensed."""

    bits: int
    period_slots: int

    def __post_init__(self) -> None:
        if self.period_slots < 1:
            raise ValueError("period_slots must be >= 1")
        if not 0 <= self.bits < (1 << self.period_slots):
            raise ValueError("trace bits exceed the period length")

    @classmethod
    def from_slots(cls, slots) -> "ChannelTrace":
        """Build a trace from an iterable of per-slot 0/1 flags, slot 1 first."""
        bits = 0
        n = 0
        for t, flag in enumerate(slots):
            if flag:
                bits |= 1 << t
            n = t + 1
        if n == 0:
            raise ValueError("trace must cover at least one slot")
        return cls(bits=bits, period_slots=n)

    @property
    def observed(self) -> tuple[int, ...]:
        return tuple((self.bits >> t) & 1 for t in range(self.period_slots))

    def popcount(self) -> int:
        return self.bits.bit_count()


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


@lru_cache(maxsize=None)
def _pattern_bits(device_id: DeviceId, p: float, period_slots: int) -> int:
    # Patterns are pure functions of (id, p, T); identification replays them
    # constantly, so cache the packed form.
    return generate_pattern(device_id, p, period_slots).bits


def pattern_matrix(ids, p: float, period_slots: int) -> np.ndarray:
    """Per-slot beep flags of each id, shape (len(ids), period_slots), slot 1 first."""
    n_bytes = (period_slots + 7) // 8
    packed = b"".join(
        generate_pattern(device_id, p, period_slots).bits.to_bytes(n_bytes, "little")
        for device_id in ids
    )
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(-1, n_bytes)
    return np.unpackbits(rows, axis=1, count=period_slots, bitorder="little").astype(bool)


def identify(
    trace: ChannelTrace,
    candidates,
    p: float,
    period_slots: int,
) -> IdSet:
    """Accept every candidate whose full pattern is covered by the trace.

    Candidate order is preserved. A candidate with an all-zero pattern is
    vacuously covered and therefore always accepted.
    """
    if trace.period_slots != period_slots:
        raise ValueError(
            f"trace covers {trace.period_slots} slots, expected {period_slots}"
        )
    candidates = tuple(candidates)
    not_observed = ~trace.bits
    accepted = tuple(
        device_id
        for device_id in candidates
        if _pattern_bits(device_id, p, period_slots) & not_observed == 0
    )
    return IdSet(candidates=candidates, identified=accepted)


@dataclass(frozen=True)
class FilterWindow:
    """Sliding window of the most recent period traces, capacity ``window_len``."""

    window_len: int
    recent_traces: tuple[ChannelTrace, ...] = ()

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")
        if len(self.recent_traces) > self.window_len:
            raise ValueError("window holds more traces than its capacity")
        lengths = {t.period_slots for t in self.recent_traces}
        if len(lengths) > 1:
            raise ValueError("all traces in a window must have the same length")


def filter_push(window: FilterWindow, trace: ChannelTrace) -> FilterWindow:
    """Append a trace, evicting the oldest once the window is full."""
    if window.recent_traces and trace.period_slots != window.recent_traces[0].period_slots:
        raise ValueError(
            f"trace covers {trace.period_slots} slots, window traces cover "
            f"{window.recent_traces[0].period_slots}"
        )
    traces = window.recent_traces + (trace,)
    if len(traces) > window.window_len:
        traces = traces[1:]
    return FilterWindow(window_len=window.window_len, recent_traces=traces)


def filter_apply(window: FilterWindow) -> ChannelTrace:
    """Slot-wise OR of every trace currently in the window."""
    if not window.recent_traces:
        raise ValueError("cannot apply an empty filter window")
    bits = 0
    for trace in window.recent_traces:
        bits |= trace.bits
    return ChannelTrace(bits=bits, period_slots=window.recent_traces[0].period_slots)
