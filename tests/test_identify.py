"""Subset identification and the OR-filter."""

import numpy as np
import pytest

from beepid.fingerprint import generate_pattern
from beepid.identify import IdSet, filter_apply, filter_push, identify, uncovered
from oracles import ref_pattern_bits, ref_pattern_slots


def _trace(bits: int, t: int) -> np.ndarray:
    """A trace from a little-endian bit mask, slot 1 in bit 0."""
    return np.array([(bits >> k) & 1 for k in range(t)], dtype=bool)


def _full_trace(t: int) -> np.ndarray:
    return np.ones(t, dtype=bool)


def _empty_window(t: int) -> np.ndarray:
    return np.zeros((0, t), dtype=bool)


def test_all_ones_trace_identifies_everyone():
    result = identify(_full_trace(32), [3, 1, 4, 1_000_000], 0.4)
    assert result.identified == (3, 1, 4, 1_000_000)


def test_own_pattern_identifies_itself():
    pattern = generate_pattern(5, 0.5, 64)
    assert identify(pattern, [5], 0.5).identified == (5,)


def test_union_of_two_against_three_candidates():
    # Brute-force subset check straight from the reference pattern oracle.
    t, p = 16, 0.5
    union = [
        a | b
        for a, b in zip(ref_pattern_slots(1, p, t), ref_pattern_slots(2, p, t))
    ]
    third_covered = all(
        not beep or seen for beep, seen in zip(ref_pattern_slots(3, p, t), union)
    )
    result = identify(union, [1, 2, 3], p)
    assert 1 in result and 2 in result
    assert (3 in result) == third_covered


def test_candidate_order_is_preserved():
    result = identify(_full_trace(8), [9, 2, 7], 0.2)
    assert result.identified == (9, 2, 7)


def test_trace_length_mismatch_rejected():
    with pytest.raises(ValueError):
        uncovered(_full_trace(8), generate_pattern([1], 0.5, 16))
    # identify scores one trace; a stack of them goes to the array scorer.
    with pytest.raises(ValueError):
        identify(np.ones((2, 8), dtype=bool), [1], 0.5)


def test_idset_requires_subset():
    with pytest.raises(ValueError):
        IdSet(candidates=(1, 2), identified=(3,))


def test_adding_energy_never_removes_ids():
    rng = np.random.default_rng(11)
    t, p = 32, 0.3
    candidates = list(range(1, 12))
    for _ in range(50):
        bits = int(rng.integers(0, 1 << t))
        extra = bits | int(rng.integers(0, 1 << t))
        before = identify(_trace(bits, t), candidates, p).identified
        after = identify(_trace(extra, t), candidates, p).identified
        assert set(before) <= set(after)
        # The int-mask rule: accepted iff the pattern has no bit outside the trace.
        assert before == tuple(c for c in candidates if ref_pattern_bits(c, p, t) & ~bits == 0)


def test_all_zero_pattern_is_always_identified():
    # p = 0 gives an empty pattern: vacuously covered by any trace.
    assert identify(np.zeros(12, dtype=bool), [8], 0.0).identified == (8,)


def test_lossless_channel_has_no_false_negatives():
    t, p = 40, 0.3
    active = [2, 4, 6, 8]
    union = generate_pattern(active, p, t).any(axis=0)
    result = identify(union, active + [5, 7], p)
    assert set(active) <= set(result.identified)


def test_filter_push_grows_then_slides():
    t1, t2, t3, t4 = (_trace(1 << k, 4) for k in range(4))
    w = filter_push(_empty_window(4), t1, 3)
    assert np.array_equal(w, [t1])
    w = filter_push(w, t2, 3)
    w = filter_push(w, t3, 3)
    assert np.array_equal(w, [t1, t2, t3])
    w = filter_push(w, t4, 3)
    assert np.array_equal(w, [t2, t3, t4])


def test_filter_push_rejects_length_mismatch():
    w = filter_push(_empty_window(2), _trace(0b01, 2), 2)
    with pytest.raises(ValueError):
        filter_push(w, _trace(0b001, 3), 2)


def test_filter_push_rejects_empty_window():
    for filter_len in (0, -1):
        with pytest.raises(ValueError, match="filter_len"):
            filter_push(_empty_window(4), _full_trace(4), filter_len)


def test_filter_apply_is_bitwise_or():
    window = np.array([_trace(0b0101, 4), _trace(0b0011, 4)])
    assert np.array_equal(filter_apply(window, 2)[-1], _trace(0b0111, 4))


def test_filter_apply_identity_on_singleton():
    window = _trace(0b1010, 4)[None]
    assert np.array_equal(filter_apply(window, 4), window)
    # A window shorter than 2 leaves every trace as it is.
    traces = np.random.default_rng(3).random((5, 4)) < 0.5
    for filter_len in (0, 1):
        assert np.array_equal(filter_apply(traces, filter_len), traces)


def test_filtered_popcount_dominates_members():
    rng = np.random.default_rng(5)
    for _ in range(25):
        masks = [int(rng.integers(0, 1 << 20)) for _ in range(4)]
        combined = filter_apply(np.array([_trace(m, 20) for m in masks]), 4)[-1]
        assert all(combined.sum() >= bin(m).count("1") for m in masks)
        brute = 0
        for m in masks:
            brute |= m
        assert np.array_equal(combined, _trace(brute, 20))


def test_single_detection_in_window_survives_filtering():
    # A slot detected in one period reads 1 after the OR for the four
    # periods whose window holds that period, and 0 outside them.
    quiet = np.zeros(8, dtype=bool)
    once = _trace(0b0010000, 8)
    traces = np.array([quiet, once, quiet, quiet, quiet, quiet])
    offline = filter_apply(traces, 4)
    assert offline[:, 4].tolist() == [False, True, True, True, True, False]
    # The online window yields the same observation period by period.
    w = _empty_window(8)
    for period, trace in enumerate(traces):
        w = filter_push(w, trace, 4)
        assert np.array_equal(filter_apply(w, 4)[-1], offline[period])


def test_filtering_never_decreases_identified_set():
    rng = np.random.default_rng(17)
    t, p = 24, 0.25
    candidates = list(range(1, 10))
    traces = rng.random((6, t)) < 0.5
    filtered_ids = set(identify(filter_apply(traces, 6)[-1], candidates, p).identified)
    for trace in traces:
        assert set(identify(trace, candidates, p).identified) <= filtered_ids
