"""Radio model: link budget, Doppler correlation, AR(1) fading, detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beepid.channel import (
    ChannelConfig,
    NodeRadio,
    advance_rayleigh,
    detect_slot,
    doppler_correlation,
    pathloss_db,
    rayleigh_sequence,
    received_power_dbm,
    standard_complex_normal,
)
from oracles import (
    FIRST_J0_ZERO,
    bessel_j0_series,
    ref_rayleigh_sequence,
    ref_standard_complex_normal,
)

FREE_SPACE = ChannelConfig(pathloss_exponent=2.0, pathloss_ref_db=40.05)


def _radio(x, y, shadow=0.0, gain=1.0 + 0j):
    return NodeRadio(position=(x, y), shadow_db=shadow, rayleigh_gain=gain)


def test_pathloss_reference_distance():
    assert pathloss_db(1.0, FREE_SPACE) == pytest.approx(40.05)


def test_pathloss_clamps_below_one_meter():
    assert pathloss_db(0.2, FREE_SPACE) == pathloss_db(1.0, FREE_SPACE)
    assert pathloss_db(0.0, FREE_SPACE) == pathloss_db(1.0, FREE_SPACE)


def test_pathloss_hand_computed_value():
    assert pathloss_db(10.0, FREE_SPACE) == pytest.approx(60.05)


def test_pathloss_rejects_negative_distance():
    with pytest.raises(ValueError):
        pathloss_db(-1.0, FREE_SPACE)


def test_doppler_static_channel():
    assert doppler_correlation(0.0, 2.4e9, 0.010) == 1.0


def test_doppler_at_first_bessel_zero():
    # Pick a velocity placing 2*pi*f_d*dt exactly at the first J0 zero.
    carrier, slot = 2.4e9, 0.010
    f_d = FIRST_J0_ZERO / (2 * math.pi * slot)
    velocity = f_d * 3.6 * 2.99792458e8 / carrier
    assert doppler_correlation(velocity, carrier, slot) <= 1e-6


def test_doppler_matches_series_oracle():
    velocity, carrier, slot = 3.0, 2.4e9, 0.010
    f_d = (velocity / 3.6) * carrier / 2.99792458e8
    assert f_d == pytest.approx(6.67, abs=0.01)
    expected = bessel_j0_series(2 * math.pi * f_d * slot)
    assert doppler_correlation(velocity, carrier, slot) == pytest.approx(
        expected, abs=1e-6
    )


def test_doppler_clamped_to_unit_interval():
    # Past the first zero J0 goes negative; the correlation clamps at 0.
    assert doppler_correlation(100.0, 2.4e9, 0.010) >= 0.0
    with pytest.raises(ValueError):
        doppler_correlation(-1.0, 2.4e9, 0.010)


def test_advance_rayleigh_limits():
    gain = 0.3 - 0.7j
    noise = 1.1 + 0.2j
    assert advance_rayleigh(gain, 1.0, noise) == gain
    assert advance_rayleigh(gain, 0.0, noise) == noise
    with pytest.raises(ValueError):
        advance_rayleigh(gain, 1.5, noise)


def test_rayleigh_sequence_matches_scalar_recursion():
    rng = np.random.default_rng(3)
    rho = 0.9
    g0 = standard_complex_normal(rng, 4)
    noise = standard_complex_normal(rng, (4, 200))
    vectorized = rayleigh_sequence(g0, rho, noise)
    gains = g0.copy()
    for k in range(200):
        gains = np.array(
            [advance_rayleigh(g, rho, w) for g, w in zip(gains, noise[:, k])]
        )
        assert np.array_equal(gains, vectorized[:, k])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(1, 4),
    slots=st.integers(1, 300),
    rho=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    cuts=st.lists(st.integers(1, 299), min_size=1, max_size=3, unique=True),
)
def test_fading_matches_complex_oracles(seed, nodes, slots, rho, cuts):
    noise = standard_complex_normal(np.random.default_rng(seed), (nodes, slots))
    oracle_noise = ref_standard_complex_normal(np.random.default_rng(seed), (nodes, slots))
    assert noise.dtype == np.complex128 and np.array_equal(noise, oracle_noise)
    g0 = standard_complex_normal(np.random.default_rng(seed + 1), nodes)
    expected = ref_rayleigh_sequence(g0, rho, oracle_noise)
    gains = rayleigh_sequence(g0, rho, noise)
    assert np.array_equal(gains, expected)
    assert np.array_equal(np.abs(gains), np.abs(expected))
    # Filtered in 2-4 chained blocks, each continuing from the last gains.
    edges = [0, *sorted(c for c in cuts if c < slots), slots]
    blocks, gain = [], g0
    for lo, hi in zip(edges, edges[1:]):
        blocks.append(rayleigh_sequence(gain, rho, noise[:, lo:hi]))
        gain = blocks[-1][:, -1]
    assert np.array_equal(np.concatenate(blocks, axis=1), expected)


def test_rayleigh_long_run_statistics():
    rng = np.random.default_rng(99)
    g0 = standard_complex_normal(rng, 1)
    noise = standard_complex_normal(rng, (1, 2 * 10**5))
    gains = rayleigh_sequence(g0, 0.95, noise)[0]
    assert abs(np.mean(np.abs(gains) ** 2) - 1.0) <= 0.03


def test_detect_slot_silence():
    cfg = FREE_SPACE
    outcome = detect_slot([0, 0], [_radio(40, 50), _radio(60, 50)], (50, 50), cfg, 0)
    assert outcome.union_bit == 0
    assert outcome.per_node_detected == (0, 0)


def test_detect_slot_interference_saturates():
    outcome = detect_slot([0], [_radio(40, 50)], (50, 50), FREE_SPACE, 1)
    assert outcome.union_bit == 1
    assert outcome.per_node_detected == (0,)
    assert outcome.interference_on == 1


def test_detect_slot_link_budget_example():
    # 10 m, no shadowing, |gain| = 1: received -20 - 60.05 = -80.05 dBm >= -104.
    outcome = detect_slot([1], [_radio(50, 60)], (50, 50), FREE_SPACE, 0)
    assert outcome.per_node_detected == (1,)
    assert outcome.union_bit == 1
    assert received_power_dbm(_radio(50, 60), (50, 50), FREE_SPACE) == pytest.approx(
        -80.05
    )


def test_detect_slot_below_sensitivity():
    # A deep fade pushes the same node under the floor.
    faded = _radio(50, 60, gain=1e-3 + 0j)
    outcome = detect_slot([1], [faded], (50, 50), FREE_SPACE, 0)
    assert outcome.union_bit == 0


def test_zero_gain_is_never_detected():
    dead = _radio(50, 51, gain=0j)
    assert received_power_dbm(dead, (50, 50), FREE_SPACE) == -math.inf
    assert detect_slot([1], [dead], (50, 50), FREE_SPACE, 0).union_bit == 0


def test_union_monotone_in_beepers():
    radios = [_radio(50, 60), _radio(50, 45)]
    one = detect_slot([1, 0], radios, (50, 50), FREE_SPACE, 0)
    both = detect_slot([1, 1], radios, (50, 50), FREE_SPACE, 0)
    assert both.union_bit >= one.union_bit


def test_detection_monotone_in_tx_power():
    # Just below the threshold at the default budget, detected with +10 dB.
    radio = _radio(50, 60, shadow=-24.0)
    low = detect_slot([1], [radio], (50, 50), FREE_SPACE, 0)
    boosted = ChannelConfig(
        tx_power_dbm=-10.0, pathloss_exponent=2.0, pathloss_ref_db=40.05
    )
    high = detect_slot([1], [radio], (50, 50), boosted, 0)
    assert low.union_bit == 0 and high.union_bit == 1


def test_detect_slot_alignment_checked():
    with pytest.raises(ValueError):
        detect_slot([1, 0], [_radio(10, 10)], (50, 50), FREE_SPACE, 0)


def test_slot_outcome_invariant_holds():
    radios = [_radio(50, 60), _radio(50, 40, gain=0j)]
    outcome = detect_slot([1, 1], radios, (50, 50), FREE_SPACE, 0)
    assert outcome.union_bit == int(any(outcome.per_node_detected) or outcome.interference_on)


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(sensitivity_dbm=-10.0, tx_power_dbm=-20.0)
    with pytest.raises(ValueError):
        ChannelConfig(slot_s=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(interference_rate=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(velocity_kmph=-3.0)
