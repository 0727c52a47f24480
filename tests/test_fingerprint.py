"""Pattern generator against the reference SplitMix64 oracle."""

import math
import warnings

import numpy as np
import pytest

from beepid.fingerprint import _mix, _words, beep_threshold, derive_seed, generate_pattern
from oracles import ref_pattern_slots, ref_splitmix64

# Frozen from the reference implementation (and matching the published
# SplitMix64 test vector for seed 0).
SEED0_WORDS = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def _stream(seed: int, count: int) -> list[int]:
    return [int(word) for word in _words(seed, count)]


def test_seed_zero_matches_published_vector():
    assert tuple(_stream(0, 4)) == SEED0_WORDS
    assert tuple(ref_splitmix64(0, 4)) == SEED0_WORDS
    # The same mix on a Python int, as derive_seed applies it.
    assert _mix(0x9E3779B97F4A7C15) == SEED0_WORDS[0]


@pytest.mark.parametrize(
    "seed",
    [1, 42, 0xDEADBEEF, 2**64 - 1, 977, 123456789, 31337, 2**63, 55, 808017424794],
)
def test_stream_matches_reference_word_for_word(seed):
    assert _stream(seed, 100) == ref_splitmix64(seed, 100)


def test_prng_state_must_fit_u64():
    # An id is the seed state of its SplitMix64 stream.
    for ids in (-1, 1 << 64, [1, 1 << 64], [3, -2]):
        with pytest.raises(ValueError, match="device ids"):
            generate_pattern(ids, 0.5, 8)
    assert generate_pattern([0, 2**64 - 1], 0.5, 8).shape == (2, 8)


def test_threshold_semantics():
    assert beep_threshold(0.0) == 0
    assert beep_threshold(1.0) == 1 << 64
    assert beep_threshold(0.5) == 1 << 63
    assert beep_threshold(0.25) == 1 << 62
    with pytest.raises(ValueError):
        beep_threshold(-0.01)
    with pytest.raises(ValueError):
        beep_threshold(1.01)


def test_roster_rows_match_the_reference_patterns():
    ids = (3, 1, 2, 0, 42, 2**63, 2**64 - 1)
    for p in (0.0, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0 - 2.0**-53, 1.0):
        for t_slots in (1, 5, 7, 9, 100, 1000):
            # uint64 wraparound must not raise numpy's scalar overflow warning.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                matrix = generate_pattern(ids, p, t_slots)
            assert matrix.shape == (len(ids), t_slots) and matrix.dtype == bool
            for row, device_id in zip(matrix, ids):
                assert row.tolist() == [bool(f) for f in ref_pattern_slots(device_id, p, t_slots)]
                # A single id gives its own row.
                single = generate_pattern(device_id, p, t_slots)
                assert single.shape == (t_slots,) and single.dtype == bool
                assert np.array_equal(single, row)
    assert generate_pattern((), 0.4, 10).shape == (0, 10)


def test_empirical_rate_over_long_pattern():
    pattern = generate_pattern(23, 0.25, 10**5)
    assert abs(pattern.mean() - 0.25) <= 0.01


def test_distinct_ids_agree_like_independent_patterns():
    # Two independent Bernoulli(p) patterns agree per slot w.p. p^2 + (1-p)^2.
    p, t = 0.3, 10**4
    expected = p * p + (1 - p) * (1 - p)
    sigma = math.sqrt(expected * (1 - expected) / t)
    for id_a, id_b in [(1, 2), (3, 4), (77, 78)]:
        a, b = generate_pattern([id_a, id_b], p, t)
        agree = int((a == b).sum())
        assert abs(agree / t - expected) <= 4.0 * sigma


def test_one_indexed_slot_accessor():
    # Slot t (1-indexed) is column t - 1 and is decided by the t-th draw, so
    # a shorter period is a prefix of a longer one.
    pattern = generate_pattern(5, 0.5, 16)
    words = ref_splitmix64(5, 16)
    assert [bool(pattern[t - 1]) for t in range(1, 17)] == [w < 1 << 63 for w in words]
    for t in range(1, 17):
        assert np.array_equal(generate_pattern(5, 0.5, t), pattern[:t])


def test_rejects_bad_domain():
    with pytest.raises(ValueError):
        generate_pattern(1, -0.1, 10)
    with pytest.raises(ValueError):
        generate_pattern(1, 1.5, 10)
    with pytest.raises(ValueError):
        generate_pattern(1, 0.5, 0)
    with pytest.raises(ValueError):
        generate_pattern([1, 2], 0.5, 0)


def test_derive_seed_is_stable_and_spreads():
    a = derive_seed(1, 0, 0, 0)
    assert a == derive_seed(1, 0, 0, 0)
    children = {derive_seed(1, i, j, k) for i in range(4) for j in range(4) for k in range(4)}
    assert len(children) == 64


def test_derive_seed_matches_reference_stream():
    # Each coordinate steps the state by (idx + 1) gammas, then the child is
    # the next word of the stream from there.
    gamma = 0x9E3779B97F4A7C15
    for master, indices in [(1, (0, 0, 0)), (2**64 - 1, (5,)), (12345, (3, 1, 4, 1)), (7, ())]:
        state = master
        for idx in indices:
            (state,) = ref_splitmix64((state + gamma * (idx + 1)) % 2**64, 1)
        assert derive_seed(master, *indices) == state
