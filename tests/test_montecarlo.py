"""Experiment harness: scoring, sweeps, determinism, pairing."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import ref_pattern_bits, ref_pattern_slots, ref_realise_run, ref_score_traces

import beepid.montecarlo as montecarlo
from beepid.channel import link_budget_dbm
from beepid.fingerprint import generate_pattern
from beepid.montecarlo import (
    _BLOCK_SLOTS,
    ConfigError,
    FilterComparison,
    MetricsRecord,
    SimConfig,
    _draw_layout,
    compare_filtering,
    run_seed_for,
    score_traces,
    simulate_run_traces,
    sweep,
)


def _point_cfg(**kwargs) -> SimConfig:
    defaults = dict(
        runs=5,
        period_ms=(100,),
        p=(0.3,),
        interference_rate=(0.0,),
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


def test_ideal_channel_has_perfect_tp_rate():
    cfg = _point_cfg(ideal_channel=True)
    record = sweep(cfg)[0]
    assert record.tp_rate == 1.0
    assert record.fn == 0


def test_no_transmitters_and_no_interference():
    cfg = _point_cfg(n_active=0, p=(0.5,))
    record = sweep(cfg)[0]
    assert record.tp + record.fn == 0
    assert math.isnan(record.tp_rate)
    # The union stays all-zero, so exactly the silent ids whose pattern is
    # all-zero get (vacuously) identified.
    t_slots = cfg.slots_per_period(100)
    zero_patterns = sum(
        1 for device_id in cfg.roster() if ref_pattern_bits(device_id, 0.5, t_slots) == 0
    )
    assert record.fp == zero_patterns * record.events
    if zero_patterns == 0:
        assert record.tn_rate == 1.0


def test_saturated_channel_identifies_everyone():
    cfg = _point_cfg(p=(1.0,), n_nodes=4, n_active=4, ideal_channel=True)
    record = sweep(cfg)[0]
    assert record.tp_rate == 1.0
    assert record.tn + record.fp == 0


def test_count_conservation():
    cfg = _point_cfg(runs=4, interference_rate=(0.1,))
    record = sweep(cfg)[0]
    periods = cfg.periods_per_run(100)
    assert record.events == periods * cfg.runs
    assert record.tp + record.fn == cfg.n_active * record.events
    assert record.tn + record.fp == (cfg.n_nodes - cfg.n_active) * record.events


def test_sweep_is_deterministic():
    cfg = _point_cfg(runs=3, period_ms=(50, 100), p=(0.2, 0.4), interference_rate=(0.0, 0.1))
    assert sweep(cfg) == sweep(cfg)


def test_thread_count_does_not_change_results():
    cfg = _point_cfg(runs=2, period_ms=(50, 100), p=(0.2, 0.4), interference_rate=(0.0, 0.1))
    assert sweep(cfg, threads=1) == sweep(cfg, threads=2)


def test_thread_count_is_checked_and_capped_at_the_task_count(monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    one_cell = _point_cfg(runs=1)
    four_cells = _point_cfg(runs=1, period_ms=(50, 100), p=(0.2, 0.4), filter_len=2)
    assert sweep(one_cell, threads=10**6) == sweep(one_cell)
    assert sizes == []
    assert sweep(four_cells, threads=10**6) == sweep(four_cells)
    assert compare_filtering(four_cells, threads=3) == compare_filtering(four_cells)
    assert sizes == [4, 3]
    for threads in (0, -5):
        with pytest.raises(ConfigError, match="threads"):
            sweep(one_cell, threads=threads)


def test_full_grid_produces_all_records():
    cfg = SimConfig(runs=1, ideal_channel=True)
    records = sweep(cfg)
    assert len(records) == 6 * 5 * 6
    points = [(r.t_ms, r.p, r.interference_rate) for r in records]
    assert len(set(points)) == 180


def test_single_point_sweep_equals_per_run_aggregation():
    cfg = _point_cfg(runs=4, interference_rate=(0.05,))
    record = sweep(cfg)[0]
    total = sum(
        montecarlo._point_counts((cfg, 0, 0, [run_seed_for(cfg, 0, 0, r)], (cfg.filter_len,)))[0, 0]
        for r in range(cfg.runs)
    )
    assert [record.tp, record.fn, record.tn, record.fp] == total.tolist()


def test_filter_length_one_changes_nothing():
    base = _point_cfg(runs=3, interference_rate=(0.1,))
    with_m1 = dataclasses.replace(base, filter_len=1)
    r0, r1 = sweep(base)[0], sweep(with_m1)[0]
    assert (r0.tp, r0.fn, r0.tn, r0.fp) == (r1.tp, r1.fn, r1.tn, r1.fp)


def test_interference_only_adds_detections():
    # Same run seed, IR raised 0 -> 0.2: TP cannot drop, TN cannot rise.
    cfg = _point_cfg(runs=1)
    patterns = generate_pattern(cfg.roster(), 0.3, 10)
    for run_index in range(8):
        seed = run_seed_for(cfg, 0, 0, run_index)
        heard, draws = simulate_run_traces(cfg, patterns[: cfg.n_active], 50, seed)
        quiet, noisy = heard | (draws < 0.0), heard | (draws < 0.2)
        assert not (quiet & ~noisy).any()
        (tp_q, _, tn_q, _), (tp_n, _, tn_n, _) = score_traces(
            patterns, np.stack([quiet, noisy]), cfg.n_active, (0,)
        )[:, 0]
        assert tp_n >= tp_q
        assert tn_n <= tn_q


def test_interference_fraction_matches_rate():
    cfg = _point_cfg(n_active=0, runs=1)
    rate = 0.3
    ones = slots = 0
    for run_index in range(10):
        seed = run_seed_for(cfg, 0, 0, run_index)
        heard, draws = simulate_run_traces(cfg, np.zeros((0, 10), dtype=bool), 50, seed)
        traces = heard | (draws < rate)
        ones += int(traces.sum())
        slots += traces.size
    sigma = math.sqrt(rate * (1 - rate) / slots)
    assert abs(ones / slots - rate) <= 3 * sigma


def test_filtering_with_window_longer_than_run():
    # 5s at T=1000ms gives 5 periods; a length-6 window still scores every
    # period on the partial OR accumulated so far.
    cfg = _point_cfg(runs=3, period_ms=(1000,), interference_rate=(0.2,), filter_len=6)
    comparison = compare_filtering(cfg)[0]
    assert comparison.tp_gain >= 0.0
    assert not math.isnan(comparison.net)


def test_compare_filtering_pairs_the_same_traces():
    cfg = _point_cfg(runs=2, interference_rate=(0.2,), filter_len=4)
    comparison = compare_filtering(cfg)[0]
    unfiltered = sweep(dataclasses.replace(cfg, filter_len=0))[0]
    filtered = sweep(dataclasses.replace(cfg, filter_len=4))[0]
    assert comparison.off == unfiltered
    assert comparison.on == filtered


def test_layout_draw():
    cfg = _point_cfg()
    positions = _draw_layout(cfg, np.random.default_rng(5))
    assert positions.shape == (cfg.n_nodes, 2)
    assert ((0.0 <= positions) & (positions <= 100.0)).all()
    assert np.array_equal(positions, np.random.default_rng(5).uniform(0.0, 100.0, (10, 2)))
    # The receiver is the centre of the square: a node there sees only the
    # 1 m reference pathloss.
    centre_budget = link_budget_dbm(np.array([[50.0, 50.0]]), np.zeros(1), cfg)
    assert centre_budget[0] == cfg.tx_power_dbm - cfg.pathloss_ref_db


def test_require_single_point_refuses_grids():
    _point_cfg().require_single_point()
    grids = {"period_ms": (50, 100), "p": (0.1, 0.3), "interference_rate": (0.0, 0.1)}
    for name, grid in grids.items():
        with pytest.raises(ConfigError, match=f"but {name} has 2 values"):
            _point_cfg(**{name: grid}).require_single_point()


def test_compare_filtering_requires_window():
    with pytest.raises(ConfigError):
        compare_filtering(_point_cfg(filter_len=1))


def test_config_validation():
    with pytest.raises(ConfigError):
        _point_cfg(n_active=11)
    with pytest.raises(ConfigError):
        _point_cfg(period_ms=(55,))  # not a whole number of 10ms slots
    with pytest.raises(ConfigError):
        _point_cfg(period_ms=(1000,), sim_length_s=0.5)
    with pytest.raises(ConfigError):
        _point_cfg(p=())
    with pytest.raises(ConfigError):
        _point_cfg(p=(1.2,))
    with pytest.raises(ConfigError):
        _point_cfg(master_seed=-1)
    with pytest.raises(ConfigError):
        _point_cfg(runs=0)
    with pytest.raises(ConfigError):
        _point_cfg(slot_s=0.0)
    with pytest.raises(ConfigError):
        _point_cfg(interference_rate=(1.5,))
    # Roster ids run from 1 to n_nodes, and the largest must be a u64 device id.
    with pytest.raises(ConfigError, match="n_nodes"):
        _point_cfg(n_nodes=2**64)
    with pytest.raises(ConfigError, match="n_nodes"):
        SimConfig.from_dict({"n_nodes": 2**64})
    assert _point_cfg(n_nodes=2**64 - 1).n_nodes == 2**64 - 1


def test_config_dict_round_trip():
    cfg = _point_cfg(runs=2, interference_rate=(0.0, 0.2), master_seed=99)
    clone = SimConfig.from_dict(cfg.to_dict())
    assert sweep(cfg) == sweep(clone)


def test_config_rejects_unknown_and_bad_keys():
    base = _point_cfg().to_dict()
    with pytest.raises(ConfigError):
        SimConfig.from_dict({**base, "bogus_knob": 3})
    with pytest.raises(ConfigError):
        SimConfig.from_dict({**base, "runs": "many"})
    with pytest.raises(ConfigError):
        SimConfig.from_dict({**base, "ideal_channel": "yes"})
    with pytest.raises(ConfigError):
        SimConfig.from_dict({**base, "runs": 2.5})


def test_channel_slot_duration_follows_sim_config():
    # The fading correlation is taken over SimConfig's slot, which the
    # oracle reads too; at 3 km/h it is 0.989 for 5 ms slots, 0.957 for 10 ms.
    cfg = _point_cfg(slot_s=0.005, period_ms=(100,))
    assert cfg.slots_per_period(100) == 20
    patterns = generate_pattern(cfg.roster()[: cfg.n_active], 0.3, 20)
    for run_seed in (1, 2):
        heard, draws = simulate_run_traces(cfg, patterns, 50, run_seed)
        ref_heard, ref_draws = ref_realise_run(cfg, patterns, 50, run_seed)
        assert np.array_equal(heard, ref_heard) and np.array_equal(draws, ref_draws)


def test_harsher_pathloss_lowers_tp():
    mild = _point_cfg(runs=10, pathloss_exponent=2.0)
    harsh = _point_cfg(runs=10, pathloss_exponent=3.5)
    assert sweep(harsh)[0].tp_rate < sweep(mild)[0].tp_rate


def test_config_refuses_to_truncate_or_accept_non_finite_values():
    with pytest.raises(ConfigError, match="not a whole number"):
        _point_cfg(period_ms=(100.7,))
    assert _point_cfg(period_ms=(100.0,)).period_ms == (100,)
    base = _point_cfg().to_dict()
    for key, value in (("runs", math.inf), ("sim_length_s", math.nan), ("tx_power_dbm", math.nan)):
        with pytest.raises(ConfigError, match=key):
            SimConfig.from_dict({**base, key: value})
    with pytest.raises(ConfigError):
        _point_cfg(sim_length_s=math.inf)


def test_periods_per_run_counts_whole_slots():
    # 2030 ms holds 29 periods of 70 ms and 2010 ms 67 of 30 ms, which a
    # float floor division of the milliseconds undercounts by one.
    assert _point_cfg(sim_length_s=2.03, period_ms=(70,)).periods_per_run(70) == 29
    assert _point_cfg(sim_length_s=2.01, period_ms=(30,)).periods_per_run(30) == 67
    assert _point_cfg(sim_length_s=2.035, period_ms=(70,)).periods_per_run(70) == 29
    assert SimConfig().periods_per_run(150) == 33
    assert SimConfig(sim_length_s=3600.0).periods_per_run(50) == 72000
    with pytest.raises(ConfigError, match="overflows"):
        _point_cfg(sim_length_s=1e306)


def test_slot_counts_beyond_what_an_array_holds_are_refused():
    # A period too long for the float range, and a slot so short that the
    # run's count passes the largest array index, name the key and slot_s.
    for kwargs, key in (
        ({"period_ms": (10**400,)}, "period_ms"),
        ({"slot_s": 1e-300}, "sim_length_s"),
    ):
        with pytest.raises(ConfigError, match=rf"{key} .* overflows the slot count at slot_s"):
            _point_cfg(**kwargs)
    # 2^62 one-second slots are counted; 2^63 passes the largest array index.
    cfg = _point_cfg(slot_s=1.0, period_ms=(1000,), sim_length_s=2.0**62)
    assert cfg.periods_per_run(1000) == 2**62
    with pytest.raises(ConfigError, match="sim_length_s"):
        dataclasses.replace(cfg, sim_length_s=2.0**63)


def test_direct_construction_checks_int_and_bool_fields():
    with pytest.raises(ConfigError, match="runs"):
        _point_cfg(runs=2.5)
    cfg = _point_cfg(runs=2.0, n_nodes=6.0, n_active=np.int64(3), filter_len=2.0, master_seed=7.0)
    assert (cfg.runs, cfg.n_nodes, cfg.n_active, cfg.filter_len, cfg.master_seed) == (2, 6, 3, 2, 7)
    assert all(type(v) is int for v in (cfg.runs, cfg.n_nodes, cfg.n_active, cfg.filter_len))
    for key, value in (("n_nodes", "10"), ("master_seed", True), ("ideal_channel", 1)):
        with pytest.raises(ConfigError, match=key):
            _point_cfg(**{key: value})


def test_direct_construction_refuses_other_kinds_and_stays_frozen():
    for key, value in (
        ("sim_length_s", "5"),
        ("slot_s", True),
        ("p", (None,)),
        ("p", ([0.3],)),
        ("interference_rate", ("0.1",)),
        ("ideal_channel", np.bool_(True)),
    ):
        with pytest.raises(ConfigError, match=key):
            _point_cfg(**{key: value})
    cfg = _point_cfg(sim_length_s=5, p=0.3, period_ms=[100])
    assert (cfg.sim_length_s, cfg.p, cfg.period_ms) == (5.0, (0.3,), (100,))
    assert type(cfg.sim_length_s) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.filter_len = 3
    assert dataclasses.replace(cfg, filter_len=3).filter_len == 3
    with pytest.raises(ConfigError, match="filter_len"):
        dataclasses.replace(cfg, filter_len=-1)


def _multi_block_run(velocity_kmph: float, sim_length_s: float = 500.0):
    # 500 s of 100 ms periods: 50000 slots, three whole blocks and a partial one.
    cfg = _point_cfg(sim_length_s=sim_length_s, velocity_kmph=velocity_kmph)
    n_periods = cfg.periods_per_run(100)
    patterns = generate_pattern(cfg.roster()[: cfg.n_active], 0.3, cfg.slots_per_period(100))
    n_slots = n_periods * patterns.shape[1]
    assert n_slots > 3 * _BLOCK_SLOTS and n_slots % _BLOCK_SLOTS
    return cfg, patterns, n_periods, n_slots


@pytest.mark.parametrize("velocity_kmph", [0.0, 3.0, 120.0])
def test_blocked_realisation_matches_single_block_oracle(velocity_kmph):
    cfg, patterns, n_periods, _ = _multi_block_run(velocity_kmph)
    for run_seed in (1, 2**64 - 1):
        heard, draws = simulate_run_traces(cfg, patterns, n_periods, run_seed)
        ref_heard, ref_draws = ref_realise_run(cfg, patterns, n_periods, run_seed)
        assert np.array_equal(heard, ref_heard) and np.array_equal(draws, ref_draws)


def test_realisation_memory_is_bounded_per_node_slot():
    # Long enough that the per-block temporaries, a fixed few MB, do not
    # dominate: what must stay bounded is the cost per node-slot.
    cfg, patterns, n_periods, n_slots = _multi_block_run(3.0, sim_length_s=3600.0)
    tracemalloc.start()
    try:
        simulate_run_traces(cfg, patterns, n_periods, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * cfg.n_active * n_slots


def _ref_patterns(ids, p: float, t_slots: int) -> np.ndarray:
    rows = [ref_pattern_slots(i, p, t_slots) for i in ids]
    return np.array(rows, dtype=bool).reshape(-1, t_slots)


@st.composite
def _union_cases(draw):
    n_nodes = draw(st.integers(1, 6))
    t_slots = draw(st.integers(1, 12))
    periods = draw(st.integers(1, 8))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    union = draw(arrays(np.bool_, (periods, t_slots)))
    # OR whole patterns into some periods, so that acceptance is common too.
    covered = draw(arrays(np.bool_, (periods, n_nodes)))
    union |= (covered[:, :, None] & _ref_patterns(range(1, n_nodes + 1), p, t_slots)).any(axis=1)
    return n_nodes, p, union, draw(st.integers(0, n_nodes)), draw(st.integers(0, periods + 2))


@settings(max_examples=300, deadline=None)
@given(_union_cases())
def test_matrix_scorer_matches_reference_scorer(case):
    n_nodes, p, union, n_active, filter_len = case
    roster = tuple(range(1, n_nodes + 1))
    patterns = generate_pattern(roster, p, union.shape[1])
    counts = score_traces(patterns, union, n_active, (0, filter_len))
    assert tuple(counts[0]) == ref_score_traces(union, roster, roster[:n_active], p, 0)
    assert tuple(counts[1]) == ref_score_traces(union, roster, roster[:n_active], p, filter_len)


def _reference_records(cfg: SimConfig, filter_len: int) -> list[MetricsRecord]:
    """Per-point records from the oracles alone: reference patterns, the
    whole-array realisation and the int-mask scorer, one run at a time."""
    active_ids = cfg.roster()[: cfg.n_active]
    records = []
    for ti, t_ms in enumerate(cfg.period_ms):
        n_periods = cfg.periods_per_run(t_ms)
        for pi, p in enumerate(cfg.p):
            active = _ref_patterns(active_ids, p, cfg.slots_per_period(t_ms))
            runs = [
                ref_realise_run(cfg, active, n_periods, run_seed_for(cfg, ti, pi, r))
                for r in range(cfg.runs)
            ]
            for rate in cfg.interference_rate:
                totals = np.zeros(4, dtype=int)
                for heard, draws in runs:
                    traces = heard | (draws < rate)
                    totals += ref_score_traces(
                        traces, cfg.roster(), active_ids, p, filter_len
                    )
                tp, fn, tn, fp = (int(c) for c in totals)
                events = n_periods * cfg.runs
                records.append(
                    MetricsRecord(t_ms, p, rate, filter_len, cfg.runs, events, tp, fn, tn, fp)
                )
    return records


@pytest.mark.parametrize("threads", [1, 2])
def test_grid_matches_per_point_reference(threads):
    cfg = _point_cfg(
        runs=2,
        sim_length_s=1.0,
        period_ms=(50, 200),
        p=(0.2, 0.5),
        interference_rate=(0.0, 0.1),
        filter_len=3,
    )
    off, on = _reference_records(cfg, 0), _reference_records(cfg, 3)
    assert sweep(cfg, threads=threads) == on
    assert compare_filtering(cfg, threads=threads) == [
        FilterComparison(a, b) for a, b in zip(off, on)
    ]


@st.composite
def _small_fading_cfgs(draw):
    """Small grids on a fading channel, with at least one active and one silent id."""
    n_nodes = draw(st.integers(2, 6))
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4, unique=True))
    return SimConfig(
        runs=draw(st.integers(1, 3)),
        sim_length_s=draw(st.sampled_from([1.0, 2.5])),
        period_ms=tuple(draw(st.lists(st.sampled_from([50, 100, 200]), min_size=1, max_size=2, unique=True))),
        n_nodes=n_nodes,
        n_active=draw(st.integers(1, n_nodes - 1)),
        p=tuple(draw(st.lists(st.floats(0.05, 0.6), min_size=1, max_size=2))),
        interference_rate=tuple(sorted(rates)),
        filter_len=draw(st.integers(2, 6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        shadow_std_db=draw(st.floats(0.0, 12.0)),
        velocity_kmph=draw(st.sampled_from([0.0, 3.0, 120.0])),
    )


@settings(max_examples=25, deadline=None)
@given(_small_fading_cfgs())
def test_raising_the_interference_rate_never_lowers_tp_or_fp(cfg):
    records = sweep(cfg)
    n_rates = len(cfg.interference_rate)
    for start in range(0, len(records), n_rates):
        cell = records[start : start + n_rates]
        assert len({(r.t_ms, r.p) for r in cell}) == 1
        for lower, higher in zip(cell, cell[1:]):
            assert lower.interference_rate < higher.interference_rate
            assert higher.tp >= lower.tp and higher.fp >= lower.fp


@settings(max_examples=25, deadline=None)
@given(_small_fading_cfgs())
def test_filtering_never_lowers_tp_rate_or_raises_tn_rate(cfg):
    for row in compare_filtering(cfg):
        assert row.on.tp_rate >= row.off.tp_rate
        assert row.on.tn_rate <= row.off.tn_rate
