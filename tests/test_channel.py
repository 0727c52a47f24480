"""Radio model: link budget, Doppler correlation, AR(1) fading, detection."""

import importlib
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beepid.channel as channel
from beepid.channel import (
    detect,
    doppler_correlation,
    link_budget_dbm,
    rayleigh_sequence,
    rx_power_dbm,
    standard_complex_normal,
)
from beepid.fingerprint import generate_pattern
from beepid.montecarlo import SimConfig, simulate_run_traces
from oracles import (
    NodeRadio,
    advance_rayleigh,
    detect_slot,
    received_power_dbm,
    ref_rayleigh_sequence,
    ref_slot_by_slot_run,
    ref_standard_complex_normal,
)

FREE_SPACE = SimConfig(pathloss_exponent=2.0, pathloss_ref_db=40.05)
CENTRE = (50.0, 50.0)


def _one_slot(x, y, shadow=0.0, gain=1.0 + 0j, cfg=FREE_SPACE):
    """Received power and detection flag of one node in one slot, by the array path."""
    budget = link_budget_dbm(np.array([[x, y]]), np.array([shadow]), cfg)[:, None]
    gains = np.array([[gain]], dtype=np.complex128)
    return rx_power_dbm(gains, budget)[0, 0], detect(gains, budget, cfg)[0, 0]


def _run_cfg(n_nodes=2, **radio) -> SimConfig:
    return SimConfig(
        runs=1,
        sim_length_s=2.0,
        period_ms=(100,),
        p=(0.3,),
        interference_rate=(0.0,),
        n_nodes=n_nodes,
        n_active=n_nodes,
        **radio,
    )


def test_link_budget_pathloss_is_log_distance_clamped_below_one_metre():
    # Free space: 40.05 dB at 1 m and 20 dB more per decade; a node nearer
    # than 1 m, or at the receiver itself, loses what it would at 1 m.
    at_one_metre = _one_slot(51.0, 50.0)[0]
    assert at_one_metre == pytest.approx(-20.0 - 40.05)
    assert _one_slot(50.2, 50.0)[0] == _one_slot(*CENTRE)[0] == at_one_metre
    for x, pathloss in ((60.0, 60.05), (150.0, 80.05)):
        assert _one_slot(x, 50.0)[0] == pytest.approx(-20.0 - pathloss)


@settings(max_examples=300, deadline=None)
@given(velocity=st.floats(0.0, 2000.0), slot=st.floats(1e-4, 0.1))
@example(velocity=0.0, slot=0.01)  # a static channel: J0(0) = 1
@example(velocity=50.0, slot=0.01)  # J0 argument 6.98, on cephes' asymptotic branch
@example(velocity=100.0, slot=0.01)  # 13.97, past the fourth zero
def test_doppler_correlation_is_scipy_j0_bit_for_bit(velocity, slot):
    doppler_hz = (velocity / 3.6) * 2.4e9 / 2.99792458e8
    expected = min(max(float(scipy.special.j0(2.0 * math.pi * doppler_hz * slot)), 0.0), 1.0)
    assert doppler_correlation(velocity, 2.4e9, slot) == expected


def test_kernel_loader_falls_back_to_the_ordinary_import(monkeypatch):
    g0 = standard_complex_normal(np.random.default_rng(5), 3)
    noise = standard_complex_normal(np.random.default_rng(6), (3, 400))
    rho = doppler_correlation(3.0, 2.4e9, 0.01)
    direct = rayleigh_sequence(g0, rho, noise), doppler_correlation(50.0, 2.4e9, 0.01)

    class NoExtensions:
        """A finder that finds no extension file, as on a scipy release that moved it."""

        def __init__(self, path, *loader_details):
            pass

        def find_spec(self, fullname, target=None):
            return None

    imported = []
    import_module = importlib.import_module

    def recording_import(name):
        imported.append(name)
        return import_module(name)

    # Not imported yet, so the loader looks for the extension files.
    for module in ("scipy.signal._sigtools", "scipy.special._special_ufuncs"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    monkeypatch.setattr(channel, "FileFinder", NoExtensions)
    monkeypatch.setattr(importlib, "import_module", recording_import)
    linear_filter = channel._load_kernel(
        "scipy.signal._sigtools", "_linear_filter", "scipy.signal._sigtools"
    )
    j0 = channel._load_kernel("scipy.special._special_ufuncs", "j0", "scipy.special")
    assert imported == ["scipy.signal._sigtools", "scipy.special"]
    assert linear_filter is sys.modules["scipy.signal._sigtools"]._linear_filter
    assert j0 is scipy.special.j0
    monkeypatch.setattr(channel, "_linear_filter", linear_filter)
    monkeypatch.setattr(channel, "j0", j0)
    fallback = rayleigh_sequence(g0, rho, noise), doppler_correlation(50.0, 2.4e9, 0.01)
    assert np.array_equal(fallback[0], direct[0]) and fallback[1] == direct[1]


def test_doppler_clamped_to_unit_interval():
    # Past the first zero J0 goes negative; the correlation clamps at 0.
    assert doppler_correlation(100.0, 2.4e9, 0.010) >= 0.0
    # An argument that overflows to inf, where j0 is NaN, takes J0's limit 0;
    # a large finite one keeps j0's bits.
    assert doppler_correlation(1e300, 2.4e9, 0.010) == 0.0
    assert doppler_correlation(1e300, 1e300, 0.010) == 0.0
    argument = 2.0 * math.pi * (1e290 / 3.6) * 2.4e9 / 2.99792458e8 * 0.010
    assert doppler_correlation(1e290, 2.4e9, 0.010) == float(scipy.special.j0(argument)) > 0.0
    with pytest.raises(ValueError):
        doppler_correlation(-1.0, 2.4e9, 0.010)


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
    # The noise is read, not written: the blocks below filter it again.
    assert np.array_equal(noise, oracle_noise)
    assert np.array_equal(gains, expected)
    assert np.array_equal(np.abs(gains), np.abs(expected))
    # Filtered in 2-4 chained blocks, each continuing from the last gains.
    edges = [0, *sorted(c for c in cuts if c < slots), slots]
    blocks, gain = [], g0
    for lo, hi in zip(edges, edges[1:]):
        blocks.append(rayleigh_sequence(gain, rho, noise[:, lo:hi]))
        gain = blocks[-1][:, -1]
    assert np.array_equal(np.concatenate(blocks, axis=1), expected)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_nodes=st.integers(1, 4),
    n_slots=st.integers(1, 5),
    cfg=st.sampled_from([SimConfig(), FREE_SPACE, SimConfig(tx_power_dbm=-60.0)]),
)
def test_array_detection_matches_scalar_oracle(data, n_nodes, n_slots, cfg):
    # Positions anywhere in the square, or within 1.5 m of the receiver;
    # gains of any size including 0j, which is never heard.
    def rows(element, n):
        return st.lists(element, min_size=n, max_size=n)

    coord = st.one_of(st.floats(0.0, 100.0), st.floats(48.5, 51.5))
    gain = st.one_of(
        st.just(0j), st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    )
    positions = np.array(data.draw(rows(st.tuples(coord, coord), n_nodes)))
    shadows = np.array(data.draw(rows(st.floats(-30.0, 30.0), n_nodes)))
    gains = np.array(data.draw(rows(rows(gain, n_slots), n_nodes)), dtype=np.complex128)
    budget = link_budget_dbm(positions, shadows, cfg)[:, None]
    power = rx_power_dbm(gains, budget)
    flags = detect(gains, budget, cfg)
    assert flags.dtype == bool and flags.shape == gains.shape
    for k in range(n_slots):
        radios = [
            NodeRadio((float(x), float(y)), float(shadow), complex(g))
            for (x, y), shadow, g in zip(positions, shadows, gains[:, k])
        ]
        outcome = detect_slot([1] * n_nodes, radios, CENTRE, cfg, 0)
        for i, radio in enumerate(radios):
            expected = received_power_dbm(radio, CENTRE, cfg)
            if math.isinf(expected):
                assert power[i, k] == expected and not flags[i, k]
                continue
            assert abs(power[i, k] - expected) <= 1e-9
            if abs(expected - cfg.sensitivity_dbm) > 1e-9:
                assert flags[i, k] == bool(outcome.per_node_detected[i])


def test_detect_slot_silence():
    # Two nodes close enough to be heard through any plausible fade: they
    # are heard only in the slots they beep in.
    cfg = _run_cfg(area_m=2.0, shadow_std_db=0.0)
    silent = np.zeros((2, 10), dtype=bool)
    (heard,), _ = simulate_run_traces(cfg, silent, 20, [1])
    assert not heard.any()
    (heard,), _ = simulate_run_traces(cfg, ~silent, 20, [1])
    assert heard.all()


def test_detect_slot_interference_saturates():
    # p = 0: nobody beeps, yet interference at rate 1 fills every slot.
    cfg = _run_cfg(n_nodes=3)
    silent = generate_pattern(cfg.roster()[: cfg.n_active], 0.0, 10)
    for seed in (1, 2):
        (heard,), (draws,) = simulate_run_traces(cfg, silent, 20, [seed])
        assert (heard | (draws < 1.0)).all()
        assert not (heard | (draws < 0.0)).any()


def test_detect_slot_link_budget_example():
    # 10 m, no shadowing, |gain| = 1: received -20 - 60.05 = -80.05 dBm >= -104.
    power, heard = _one_slot(50, 60)
    assert power == pytest.approx(-80.05) and heard
    assert received_power_dbm(NodeRadio((50, 60), 0.0, 1 + 0j), CENTRE, FREE_SPACE) == (
        pytest.approx(-80.05)
    )


def test_detect_slot_below_sensitivity():
    # A deep fade pushes the same node under the floor.
    power, heard = _one_slot(50, 60, gain=1e-3 + 0j)
    assert power == pytest.approx(-140.05) and not heard
    # The threshold is inclusive: -20 dBm less an 84 dB loss at the
    # receiver lands exactly on the -104 dBm floor and is heard.
    at_floor = SimConfig(pathloss_ref_db=84.0)
    assert _one_slot(*CENTRE, cfg=at_floor) == (-104.0, True)
    radio = NodeRadio(CENTRE, 0.0, 1 + 0j)
    assert detect_slot([1], [radio], CENTRE, at_floor, 0).per_node_detected == (1,)


def test_zero_gain_is_never_detected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power, heard = _one_slot(50, 51, gain=0j)
    assert power == -math.inf and not heard
    dead = NodeRadio((50, 51), 0.0, 0j)
    assert received_power_dbm(dead, CENTRE, FREE_SPACE) == -math.inf
    assert detect_slot([1], [dead], CENTRE, FREE_SPACE, 0).union_bit == 0


def test_union_monotone_in_beepers():
    # Same draws, second node silenced or beeping: adding a beeper only adds slots.
    cfg = _run_cfg()
    both = generate_pattern((1, 2), 0.3, 10)
    one = both.copy()
    one[1] = False
    for seed in range(4):
        (heard_one,), _ = simulate_run_traces(cfg, one, 20, [seed])
        (heard_both,), _ = simulate_run_traces(cfg, both, 20, [seed])
        assert not (heard_one & ~heard_both).any()


def test_detection_monotone_in_tx_power():
    # Just below the threshold at the default budget, detected with +10 dB.
    power, heard = _one_slot(50, 60, shadow=-24.0)
    boosted = SimConfig(tx_power_dbm=-10.0, pathloss_exponent=2.0, pathloss_ref_db=40.05)
    boosted_power, boosted_heard = _one_slot(50, 60, shadow=-24.0, cfg=boosted)
    assert not heard and boosted_heard
    assert boosted_power == pytest.approx(power + 10.0)


def test_detect_slot_alignment_checked():
    # One budget per node: a budget column of the wrong length is refused.
    gains = np.ones((1, 5), dtype=np.complex128)
    with pytest.raises(ValueError):
        detect(gains, np.zeros((2, 1)), FREE_SPACE)
    with pytest.raises(ValueError):
        link_budget_dbm(np.zeros((2, 2)), np.zeros(3), FREE_SPACE)


def test_slot_outcome_invariant_holds():
    # The slot-by-slot scalar radio reproduces a run's union traces, in which
    # fades erase some beeps, and each slot's union is its detections or
    # its interference.
    cfg = _run_cfg(n_nodes=5)
    patterns = generate_pattern(cfg.roster()[: cfg.n_active], 0.3, 10)
    erased = 0
    for seed in (1, 7):
        (heard,), (draws,) = simulate_run_traces(cfg, patterns, cfg.periods_per_run(100), [seed])
        traces = heard | (draws < 0.1)
        periods = ref_slot_by_slot_run(cfg, patterns, cfg.periods_per_run(100), seed, 0.1)
        assert len(traces) == len(periods)
        for trace, outcomes in zip(traces, periods):
            for t, outcome in enumerate(outcomes):
                union = any(outcome.per_node_detected) or outcome.interference_on
                assert outcome.union_bit == int(union)
                erased += int((patterns[:, t] > np.array(outcome.per_node_detected)).sum())
            assert trace.tolist() == [bool(o.union_bit) for o in outcomes]
    assert erased > 0
