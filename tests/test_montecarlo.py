"""Experiment harness: scoring, sweeps, pairing."""

import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import ref_pattern_bits, ref_pattern_slots, ref_realise_run, ref_score_traces

import beepid.montecarlo as montecarlo
from beepid.channel import link_budget_dbm
from beepid.fingerprint import generate_pattern
from beepid.montecarlo import (
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
    tile_plan,
)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def _point_cfg(**kwargs) -> SimConfig:
    defaults = dict(
        runs=5,
        period_ms=(100,),
        p=(0.3,),
        interference_rate=(0.0,),
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


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


def test_thread_count_is_checked_and_capped_at_the_task_count(monkeypatch):
    sizes, tasks = [], []

    class RecordingPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            tasks.append(list(iterable))
            return map(fn, tasks[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    one_cell = _point_cfg(runs=1)
    four_cells = _point_cfg(runs=1, period_ms=(50, 100), p=(0.2, 0.4), filter_len=2)
    assert sweep(one_cell, threads=10**6) == sweep(one_cell)
    assert sizes == []
    assert sweep(four_cells, threads=10**6) == sweep(four_cells)
    assert compare_filtering(four_cells, threads=3) == compare_filtering(four_cells)
    assert sizes == [4, 3]
    # A task is a chunk of (period index, p index) cells, here one cell each.
    assert tasks == [[[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]]] * 2
    for threads in (0, -5):
        with pytest.raises(ConfigError, match="threads"):
            sweep(one_cell, threads=threads)


def test_full_grid_produces_all_records():
    cfg = SimConfig(runs=1, ideal_channel=True)
    records = sweep(cfg)
    assert len(records) == 6 * 5 * 6
    points = [(r.t_ms, r.p, r.interference_rate) for r in records]
    assert len(set(points)) == 180


def test_each_batch_derives_its_own_run_seeds(monkeypatch):
    # Runs of 5 nodes x 500 slots: 6 to a batch, so 14 runs make batches of
    # 6, 6 and 2, and no batch's seeds are derived before the previous batch
    # is realised.
    calls = []
    seed_for, realise = montecarlo.run_seed_for, montecarlo.simulate_run_traces

    def logged_seed(*args):
        calls.append("seed")
        return seed_for(*args)

    def logged_realise(cfg, active, n_periods, run_seeds, *args):
        calls.append(len(run_seeds))
        return realise(cfg, active, n_periods, run_seeds, *args)

    monkeypatch.setattr(montecarlo, "run_seed_for", logged_seed)
    monkeypatch.setattr(montecarlo, "simulate_run_traces", logged_realise)
    sweep(_point_cfg(runs=14))
    assert calls == ["seed"] * 6 + [6] + ["seed"] * 6 + [6] + ["seed"] * 2 + [2]


def test_filter_length_one_changes_nothing():
    base = _point_cfg(runs=3, interference_rate=(0.1,))
    with_m1 = dataclasses.replace(base, filter_len=1)
    r0, r1 = sweep(base)[0], sweep(with_m1)[0]
    assert (r0.tp, r0.fn, r0.tn, r0.fp) == (r1.tp, r1.fn, r1.tn, r1.fp)


def test_interference_fraction_matches_rate():
    cfg = _point_cfg(n_active=0, runs=1)
    rate = 0.3
    ones = slots = 0
    for run_index in range(10):
        seed = run_seed_for(cfg, 0, 0, run_index)
        (heard,), (draws,) = simulate_run_traces(cfg, np.zeros((0, 10), dtype=bool), 50, [seed])
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


def test_channel_slot_duration_follows_sim_config():
    # The fading correlation is taken over SimConfig's slot, which the
    # oracle reads too; at 3 km/h it is 0.989 for 5 ms slots, 0.957 for 10 ms.
    cfg = _point_cfg(slot_s=0.005, period_ms=(100,))
    assert cfg.slots_per_period(100) == 20
    patterns = generate_pattern(cfg.roster()[: cfg.n_active], 0.3, 20)
    for run_seed in (1, 2):
        (heard,), (draws,) = simulate_run_traces(cfg, patterns, 50, [run_seed])
        ref_heard, ref_draws = ref_realise_run(cfg, patterns, 50, run_seed)
        assert np.array_equal(heard, ref_heard) and np.array_equal(draws, ref_draws)


def test_harsher_pathloss_lowers_tp():
    mild = _point_cfg(runs=10, pathloss_exponent=2.0)
    harsh = _point_cfg(runs=10, pathloss_exponent=3.5)
    assert sweep(harsh)[0].tp_rate < sweep(mild)[0].tp_rate


def test_a_whole_float_reads_as_an_integer_only_below_2_53():
    # From 2^53 on, one float stands for several integers, so it names none.
    edge = 2.0**53
    for value in (edge - 1, -(edge - 1), 0.0, -0.0):
        assert montecarlo._whole("runs", value) == int(value)
    for value in (edge, -edge, 1e19, sys.float_info.max):
        with pytest.raises(ConfigError, match="'runs'.*write it as an integer"):
            montecarlo._whole("runs", value)


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
    # 500 s of 100 ms periods: each node row in three whole period spans and a partial one.
    cfg = _point_cfg(sim_length_s=sim_length_s, velocity_kmph=velocity_kmph)
    n_periods = cfg.periods_per_run(100)
    patterns = generate_pattern(cfg.roster()[: cfg.n_active], 0.3, cfg.slots_per_period(100))
    _, rows, periods, _ = tile_plan(cfg.n_active, cfg.n_active, n_periods, patterns.shape[1])
    assert rows == 1 and n_periods > 3 * periods and n_periods % periods
    return cfg, patterns, n_periods, n_periods * patterns.shape[1]


@pytest.mark.parametrize("velocity_kmph", [0.0, 3.0, 120.0])
def test_blocked_realisation_matches_single_block_oracle(velocity_kmph):
    cfg, patterns, n_periods, _ = _multi_block_run(velocity_kmph)
    for run_seed in (1, 2**64 - 1):
        (heard,), (draws,) = simulate_run_traces(cfg, patterns, n_periods, [run_seed])
        ref_heard, ref_draws = ref_realise_run(cfg, patterns, n_periods, run_seed)
        assert np.array_equal(heard, ref_heard) and np.array_equal(draws, ref_draws)


def test_realisation_memory_is_bounded_per_node_slot():
    # Long enough that the per-block temporaries, a fixed few MB, do not
    # dominate: what must stay bounded is the cost per node-slot.
    cfg, patterns, n_periods, n_slots = _multi_block_run(3.0, sim_length_s=3600.0)
    tracemalloc.start()
    try:
        simulate_run_traces(cfg, patterns, n_periods, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * cfg.n_active * n_slots


def _fading_tiles(monkeypatch) -> list:
    """The (rows, slots) shape of every tile that then goes through ``rayleigh_sequence``."""
    shapes = []
    realise = montecarlo.rayleigh_sequence

    def logged(g0, rho, noise):
        shapes.append(noise.shape)
        return realise(g0, rho, noise)

    monkeypatch.setattr(montecarlo, "rayleigh_sequence", logged)
    return shapes


def _default_cfg(**overrides) -> SimConfig:
    return SimConfig.from_dict({**json.loads(DEFAULT_CONFIG.read_text()), **overrides})


def test_filter_compare_grid_is_realised_in_one_tile_per_batch(monkeypatch):
    # The benchmark's filter-compare-m6 grid. A cell's 10 runs of 5 x 500
    # node-slots (495 at 150 ms periods) go in batches of 6 and 4 runs, each
    # batch one tile.
    tiles = _fading_tiles(monkeypatch)
    compare_filtering(_default_cfg(runs=10, filter_len=6))
    assert [rows for rows, _ in tiles] == [6 * 5, 4 * 5] * 30
    assert {slots for _, slots in tiles} == {495, 500}


def test_long_run_is_realised_in_period_spans_of_one_node_row(monkeypatch):
    # The benchmark's long-run point: 3600 periods of 100 slots and 5 active
    # nodes a run, each run a batch of its own. 163 periods fill a tile, so
    # a node row goes in 22 spans of 163 periods and one of 14.
    cfg = _default_cfg(
        period_ms=[1000], p=[0.2], interference_rate=[0.05], sim_length_s=3600.0, runs=2
    )
    tiles = _fading_tiles(monkeypatch)
    montecarlo._chunk_counts(cfg, (0,), [(0, 0)])
    assert tiles == ([(1, 16300)] * 22 + [(1, 1400)]) * 5 * 2


def test_a_serial_grid_realises_every_tile_in_one_workspace(monkeypatch):
    # A serial grid is one chunk of cells with one workspace, sized for its
    # largest tile: 100 ms cells come first with tiles of 16 periods of 1000
    # slots, and 2000 ms cells follow with one period of 20000. The blocks
    # are held, so no fresh buffer could take the memory of an earlier one.
    blocks = []
    realise = montecarlo.rayleigh_sequence

    def logged(g0, rho, noise):
        blocks.append(noise)
        return realise(g0, rho, noise)

    monkeypatch.setattr(montecarlo, "rayleigh_sequence", logged)
    cfg = _default_cfg(
        runs=2, slot_s=0.0001, period_ms=[100, 2000], sim_length_s=4.0, p=[0.1, 0.5], filter_len=6
    )
    compare_filtering(cfg)
    assert {block.size for block in blocks} == {16000, 8000, 20000}
    assert all(np.shares_memory(block, blocks[0]) for block in blocks)


# Prints the minor page faults of the second compare_filtering call of the
# interpreter at the filter-compare-m6 config (configs/default.json, argv[1]).
SECOND_CALL_FAULTS = """
import json, resource, sys
from beepid.montecarlo import SimConfig, compare_filtering
cfg = SimConfig.from_dict({**json.load(open(sys.argv[1])), "runs": 10, "filter_len": 6})
compare_filtering(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
compare_filtering(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_a_grid_call_does_not_fault_in_fresh_tiles():
    # Tile arrays allocated per batch go back to the kernel between batches
    # and fault in again, about 8,300 minor faults per call at this config;
    # one workspace per chunk takes one or two hundred. The call runs in a
    # fresh interpreter: a process that has freed larger arrays keeps more
    # heap, and there per-batch arrays would fault little too.
    src = str(DEFAULT_CONFIG.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SECOND_CALL_FAULTS, str(DEFAULT_CONFIG)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1000


def _cell_plans(cfg: SimConfig) -> list:
    return [
        tile_plan(cfg.n_active, cfg.n_nodes, cfg.periods_per_run(t), cfg.slots_per_period(t))
        for t in cfg.period_ms
    ]


def test_tile_plan_is_pinned_on_the_benchmark_cells():
    # filter-compare-m6: a cell's 10 runs of 5 x 500 node-slots (495 at
    # 150 ms periods) go in batches of 6 and 4 runs, each batch one fading
    # tile of all 5 rows and every period.
    cfg = _default_cfg(runs=10, filter_len=6)
    assert _cell_plans(cfg) == [
        (6, 5, cfg.periods_per_run(t), 16384 // cfg.slots_per_period(t)) for t in cfg.period_ms
    ]
    # long-run: 3600 periods of 100 slots, each run a batch of its own. 163
    # periods fill a tile, so a node row goes in 22 spans of 163 periods and
    # one of 14, and 163 traces fill a coverage tile.
    cfg = _default_cfg(period_ms=[1000], p=[0.2], interference_rate=[0.05], sim_length_s=3600.0)
    assert _cell_plans(cfg) == [(1, 1, 163, 163)]


@st.composite
def _tiled_runs(draw):
    n_active = draw(st.integers(0, 8))
    cfg = SimConfig(
        n_nodes=max(n_active, 1),
        n_active=n_active,
        velocity_kmph=draw(st.sampled_from([0.0, 3.0, 120.0])),
        ideal_channel=draw(st.booleans()),
    )
    patterns = draw(arrays(np.bool_, (n_active, draw(st.integers(1, 20)))))
    n_periods = draw(st.integers(1, 30))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), max_size=7))
    # A plan's fading tiles: whole periods of some rows, or spans of one row.
    if draw(st.booleans()):
        rows, periods = draw(st.integers(1, max(n_active, 1))), n_periods
    else:
        rows, periods = 1, draw(st.integers(1, n_periods))
    return (len(seeds), rows, periods, 1), cfg, patterns, n_periods, seeds


def _tiled_run(rows: int, periods: int, n_active: int, t_slots: int, n_periods: int, runs: int = 1):
    cfg = SimConfig(n_active=n_active)
    patterns = generate_pattern(cfg.roster()[:n_active], 0.5, t_slots)
    return (runs, rows, periods, 1), cfg, patterns, n_periods, list(range(7, 7 + runs))


@settings(max_examples=200, deadline=None)
@given(_tiled_runs())
# Rows of 20 slots, 3 to a tile: row groups of 3, 3 and 2.
@example(_tiled_run(3, 4, n_active=8, t_slots=5, n_periods=4))
# Three runs of rows of 35 slots: tiles of one row of the three, one period each.
@example(_tiled_run(1, 1, n_active=2, t_slots=5, n_periods=7, runs=3))
# The same in spans of 2, 2, 2 and 1 periods.
@example(_tiled_run(1, 2, n_active=2, t_slots=5, n_periods=7, runs=3))
# Periods of 20 slots, one per tile.
@example(_tiled_run(1, 1, n_active=3, t_slots=20, n_periods=2))
# Seven runs of 2 x 10 node-slots: tiles of one row of the seven, one period each.
@example(_tiled_run(1, 1, n_active=2, t_slots=5, n_periods=2, runs=7))
# Two runs of 5 rows of 10 slots: whole rows of both, in groups of 3 and 2.
@example(_tiled_run(3, 2, n_active=5, t_slots=5, n_periods=2, runs=2))
def test_tiled_realisation_matches_single_block_oracle(case):
    plan, cfg, patterns, n_periods, seeds = case
    heard, draws = simulate_run_traces(cfg, patterns, n_periods, seeds, plan)
    assert heard.shape == draws.shape == (len(seeds), n_periods, patterns.shape[1])
    for run, run_seed in enumerate(seeds):
        ref_heard, ref_draws = ref_realise_run(cfg, patterns, n_periods, run_seed)
        assert np.array_equal(heard[run], ref_heard) and np.array_equal(draws[run], ref_draws)
    # A larger workspace left holding stale values gives the same traces.
    size = len(seeds) * plan[1] * plan[2] * patterns.shape[1] + 3
    stale = np.full(size, complex(np.nan, np.inf)), np.full(size, -np.inf)
    again = simulate_run_traces(cfg, patterns, n_periods, seeds, plan, stale)
    assert np.array_equal(again[0], heard) and np.array_equal(again[1], draws)


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
    assert sweep(dataclasses.replace(cfg, filter_len=0), threads=threads) == off
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
