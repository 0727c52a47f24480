"""Subset identification and the OR-filter."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beepid.fingerprint import generate_pattern
from beepid.identify import IdSet, filter_apply, filter_push, identify, uncovered
from oracles import ref_filter_apply, ref_pattern_bits, ref_uncovered


def _trace(bits: int, t: int) -> np.ndarray:
    """A trace from a little-endian bit mask, slot 1 in bit 0."""
    return np.array([(bits >> k) & 1 for k in range(t)], dtype=bool)


def _full_trace(t: int) -> np.ndarray:
    return np.ones(t, dtype=bool)


def _empty_window(t: int) -> np.ndarray:
    return np.zeros((0, t), dtype=bool)


def test_trace_length_mismatch_rejected():
    with pytest.raises(ValueError):
        uncovered(_full_trace(8), generate_pattern([1], 0.5, 16))
    # identify scores one trace; a stack of them goes to the array scorer.
    with pytest.raises(ValueError):
        identify(np.ones((2, 8), dtype=bool), [1], 0.5)


@st.composite
def _coverage_cases(draw):
    t_slots = draw(st.integers(1, 40))
    lead = draw(st.lists(st.integers(0, 4), max_size=3))
    traces = draw(st.sampled_from([st.booleans(), st.just(True)]))
    observed = draw(arrays(np.bool_, (*lead, t_slots), elements=traces))
    beeps = draw(st.sampled_from([st.booleans(), st.just(False)]))
    patterns = draw(arrays(np.bool_, (draw(st.integers(0, 40)), t_slots), elements=beeps))
    # A bound of up to 70 traces' products: up to 64 traces, a tile past the
    # count is one short tile; a bound below one trace's product still takes one.
    muladds = draw(st.integers(1, 70 * t_slots * max(len(patterns), 16)))
    return muladds, observed, patterns


@settings(max_examples=300, deadline=None)
@given(_coverage_cases())
# Tiles of 2 traces over 5 traces: tiles of 2, 2 and a short last one of 1.
@example((2 * 3 * 16, np.arange(15).reshape(5, 3) % 4 > 0, generate_pattern(range(1, 7), 0.5, 3)))
# 24 ids of 3 slots in tiles of one trace each.
@example((3 * 24, np.arange(15).reshape(5, 3) % 4 > 0, generate_pattern(range(1, 25), 0.5, 3)))
def test_tiled_coverage_matches_boolean_product(case):
    muladds, observed, patterns = case
    # By its import path: ``beepid.identify`` as an attribute is the function.
    with mock.patch("beepid.identify._TILE_MULADDS", muladds):
        missed = uncovered(observed, patterns)
    assert missed.dtype == bool
    assert np.array_equal(missed, ref_uncovered(observed, patterns))
    assert missed.shape == observed.shape[:-1] + (len(patterns),)


class _TileLog(np.ndarray):
    """Traces that log the (traces, T, ids) shape of every coverage product taken of them."""

    products: list = []

    def __matmul__(self, other):
        _TileLog.products.append(self.shape + other.shape[-1:])
        return np.asarray(self) @ other


# Up to 16 ids a tile holds 16384 // T traces whatever the roster; past
# 16 ids the multiply-add bound, not the slot bound, sizes the tiles.
@pytest.mark.parametrize("n_ids, traces_per_tile", [(10, 163), (16, 163), (40, 65), (300, 8)])
def test_coverage_tiles_stay_within_one_blas_thread(n_ids, traces_per_tile):
    # 600 traces of 100 slots, as at a grid point of 1000 ms periods.
    observed = np.random.default_rng(3).random((6, 2, 50, 100)) < 0.7
    patterns = generate_pattern(range(1, n_ids + 1), 0.3, 100)
    _TileLog.products = []
    missed = uncovered(observed.view(_TileLog), patterns)
    assert np.array_equal(missed, ref_uncovered(observed, patterns))
    # OpenBLAS runs sgemm on one thread up to 65536 * 4 multiply-adds.
    assert all(math.prod(shape) <= 65536 * 4 for shape in _TileLog.products)
    tiles = [traces for traces, _, _ in _TileLog.products]
    assert tiles[:-1] == [traces_per_tile] * (len(tiles) - 1)
    assert 0 < tiles[-1] <= traces_per_tile and sum(tiles) == 600


def test_idset_requires_subset():
    with pytest.raises(ValueError):
        IdSet(candidates=(1, 2), identified=(3,))


def _covered(ids, p: float, t: int) -> int:
    """The OR of the reference patterns of ``ids`` as an int mask."""
    bits = 0
    for device_id in ids:
        bits |= ref_pattern_bits(device_id, p, t)
    return bits


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(1, 64),
    p=st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 1.0]),
    candidates=st.lists(st.integers(0, 2**64 - 1), max_size=12),
    bits=st.integers(0, 2**64 - 1),
    extra=st.integers(0, 2**64 - 1),
)
# An all-ones trace accepts everyone, in candidate order.
@example(t=32, p=0.4, candidates=[3, 1, 4, 1_000_000], bits=2**32 - 1, extra=0)
@example(t=8, p=0.2, candidates=[9, 2, 7], bits=2**8 - 1, extra=0)
# An id's own pattern accepts it.
@example(t=64, p=0.5, candidates=[5], bits=_covered([5], 0.5, 64), extra=0)
# The union of two patterns against a third candidate.
@example(t=16, p=0.5, candidates=[1, 2, 3], bits=_covered([1, 2], 0.5, 16), extra=0)
# p = 0 gives an empty pattern: vacuously covered by any trace.
@example(t=12, p=0.0, candidates=[8], bits=0, extra=0)
# A lossless union of the active ids accepts every one of them.
@example(t=40, p=0.3, candidates=[2, 4, 6, 8, 5, 7], bits=_covered([2, 4, 6, 8], 0.3, 40), extra=0)
def test_identify_accepts_exactly_the_covered_candidates(t, p, candidates, bits, extra):
    mask = (1 << t) - 1
    bits &= mask
    result = identify(_trace(bits, t), candidates, p)
    # The int-mask rule: accepted iff the pattern has no bit outside the trace.
    expected = tuple(c for c in candidates if ref_pattern_bits(c, p, t) & ~bits == 0)
    assert result.identified == expected
    assert result.candidates == tuple(candidates)
    assert all((c in result) == (c in expected) for c in candidates)
    # Adding energy never removes an id.
    more = identify(_trace((bits | extra) & mask, t), candidates, p).identified
    assert set(result.identified) <= set(more)


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


def test_filter_apply_identity_on_singleton():
    window = _trace(0b1010, 4)[None]
    assert np.array_equal(filter_apply(window, 4), window)
    # A window shorter than 2 leaves every trace as it is.
    traces = np.random.default_rng(3).random((5, 4)) < 0.5
    for filter_len in (0, 1):
        assert np.array_equal(filter_apply(traces, filter_len), traces)


@st.composite
def _windowed_traces(draw):
    lead = draw(st.lists(st.integers(0, 3), max_size=2))
    shape = (*lead, draw(st.integers(1, 40)), draw(st.integers(1, 8)))
    return draw(arrays(np.bool_, shape))


def _sparse_traces(periods: int) -> np.ndarray:
    """Two runs of sparse traces of 8 slots: each window's OR shows its span."""
    return np.random.default_rng(periods).random((2, periods, 8)) < 0.1


@settings(max_examples=200, deadline=None)
@given(_windowed_traces())
# Windows one short of, at and one past 2^k for k up to 5 (the last lag is
# then 2^(k-1) - 1, none or 1), and windows past the run's end.
@example(_sparse_traces(40))
@example(_sparse_traces(5))
def test_or_window_matches_windowed_count(traces):
    for filter_len in range(traces.shape[-2] + 4):
        observed = filter_apply(traces, filter_len)
        assert observed.dtype == bool
        assert np.array_equal(observed, ref_filter_apply(traces, filter_len)), filter_len


def test_filtered_popcount_dominates_members():
    rng = np.random.default_rng(5)
    # A window of two traces, 0101 | 0011 = 0111, then 25 random windows of four.
    windows = [(4, [0b0101, 0b0011])] + [
        (20, [int(rng.integers(0, 1 << 20)) for _ in range(4)]) for _ in range(25)
    ]
    for t, masks in windows:
        combined = filter_apply(np.array([_trace(m, t) for m in masks]), len(masks))[-1]
        assert all(combined.sum() >= bin(m).count("1") for m in masks)
        brute = 0
        for m in masks:
            brute |= m
        assert np.array_equal(combined, _trace(brute, t))


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
