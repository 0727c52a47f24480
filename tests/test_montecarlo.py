"""Experiment harness: scoring, sweeps, pairing."""

import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    ref_expected_counts,
    ref_pattern_bits,
    ref_pattern_slots,
    ref_realise_run,
    ref_score_traces,
)

import beepid.montecarlo as montecarlo
from beepid.fingerprint import generate_pattern
from beepid.montecarlo import (
    ConfigError,
    FilterComparison,
    MetricsRecord,
    SimConfig,
    compare_filtering,
    run_seed_for,
    score_traces,
    simulate_run_traces,
    sweep,
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


def _recording_pool(monkeypatch, cpus):
    """Pool sizes asked for and tasks mapped in this process, at ``cpus`` usable CPUs.

    The returned ``usable_cpus(count, affinity=True)`` sets the CPU count, by
    the process's affinity mask or, with ``affinity=False``, by
    ``os.cpu_count`` alone, so no pool size depends on the host's CPUs.
    """
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

    def usable_cpus(count, affinity=True):
        if affinity:
            mask = set(range(count))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    usable_cpus(cpus)
    return sizes, tasks, usable_cpus


_FOUR_CELLS = dict(runs=1, period_ms=(50, 100), p=(0.2, 0.4), filter_len=2)


def test_thread_count_is_checked_and_capped_at_the_task_count(monkeypatch):
    sizes, tasks, _ = _recording_pool(monkeypatch, cpus=8)
    one_cell = _point_cfg(runs=1)
    four_cells = _point_cfg(**_FOUR_CELLS)
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


def test_pool_workers_are_capped_at_usable_cpus(monkeypatch):
    # Fewer usable CPUs than threads and cells: the CPUs bound the pool, by the
    # process's affinity mask or, where the platform has none, by os.cpu_count.
    # One CPU, or an unknown count, runs the grid serially.
    sizes, tasks, usable_cpus = _recording_pool(monkeypatch, cpus=2)
    four_cells = _point_cfg(**_FOUR_CELLS)
    assert sweep(four_cells, threads=10**6) == sweep(four_cells)
    usable_cpus(3, affinity=False)
    assert compare_filtering(four_cells, threads=8) == compare_filtering(four_cells)
    for count in (1, None):
        usable_cpus(count, affinity=False)
        assert sweep(four_cells, threads=8) == sweep(four_cells)
    assert sizes == [2, 3]
    assert tasks == [[[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]]] * 2


def test_draw_ahead_only_while_every_worker_has_a_spare_cpu(monkeypatch):
    # A worker draws fading tiles ahead only while the workers take at most
    # half the usable CPUs; else a draw thread would share a worker's CPU.
    _, _, usable_cpus = _recording_pool(monkeypatch, cpus=2)
    flags = []
    realise = montecarlo.simulate_run_traces

    def logged(*args, draw_ahead):
        flags.append(draw_ahead)
        return realise(*args, draw_ahead=draw_ahead)

    monkeypatch.setattr(montecarlo, "simulate_run_traces", logged)
    four_cells = _point_cfg(**_FOUR_CELLS)
    expected = []
    cases = ((2, 1, True), (1, 2, False), (2, 2, False), (4, 2, True), (4, 3, False))
    for cpus, threads, ahead in cases:  # usable CPUs, --threads, drawn ahead
        usable_cpus(cpus)
        sweep(four_cells, threads=threads)
        expected += [ahead] * 4
    assert flags == expected


def test_each_batch_derives_its_own_run_seeds(monkeypatch):
    # Runs of 5 nodes x 500 slots: 13 to a batch, so 27 runs make batches of
    # 13, 13 and 1, and no batch's seeds are derived before the previous batch
    # is realised.
    calls = []
    seed_for, realise = montecarlo.run_seed_for, montecarlo.simulate_run_traces

    def logged_seed(*args):
        calls.append("seed")
        return seed_for(*args)

    def logged_realise(cfg, active, n_periods, run_seeds, *args, **kwargs):
        calls.append(len(run_seeds))
        return realise(cfg, active, n_periods, run_seeds, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_seed_for", logged_seed)
    monkeypatch.setattr(montecarlo, "simulate_run_traces", logged_realise)
    sweep(_point_cfg(runs=27))
    assert calls == ["seed"] * 13 + [13] + ["seed"] * 13 + [13] + ["seed"] + [1]


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


# Cells, seeds and bound fixed before any result was seen: three ideal cells,
# and 10 ms slots fading at 30 km/h (J0 clamped to rho = 0) and 0 km/h (rho = 1).
@pytest.mark.parametrize(
    "period_ms, p, channel, rates",
    [
        (50, 0.3, {"ideal_channel": True}, (0.0, 0.05, 0.2)),
        (100, 0.1, {"ideal_channel": True}, (0.0, 0.05, 0.2)),
        (200, 0.5, {"ideal_channel": True}, (0.0, 0.05, 0.2)),
        (100, 0.3, {"velocity_kmph": 30.0}, (0.0, 0.05)),
        (100, 0.3, {"velocity_kmph": 0.0}, (0.0, 0.05)),
    ],
    ids=["ideal-50-0.3", "ideal-100-0.1", "ideal-200-0.5", "rho0-100-0.3", "rho1-100-0.3"],
)
def test_cell_counts_match_their_exact_expectation(monkeypatch, period_ms, p, channel, rates):
    # A run's TP and FP have an exact expectation given its own layout and
    # shadowing (ref_expected_counts), so each run's count less it has mean 0.
    # The ids of a period share its interference draws, and a window shares
    # them with its neighbours, so the z-score is clustered by run. On the
    # ideal channel TP, and FP at r = 0, equal their expectation in every run:
    # with no spread the bound asks for exactly that.
    cfg = _default_cfg(
        runs=200, master_seed=1, period_ms=[period_ms], p=[p], interference_rate=list(rates),
        filter_len=6, **channel,
    )
    filter_lens = (0, cfg.filter_len)
    t_slots, n_periods = cfg.slots_per_period(period_ms), cfg.periods_per_run(period_ms)
    patterns = generate_pattern(cfg.roster(), p, t_slots)
    seeds = [run_seed_for(cfg, 0, 0, run) for run in range(cfg.runs)]
    tiles = _fading_tiles(monkeypatch)
    heard, draws = simulate_run_traces(cfg, patterns[: cfg.n_active], n_periods, seeds)
    # 200 runs, many batches' worth, still go in tiles within the bound.
    assert all(rows * slots <= montecarlo._BLOCK_SLOTS for rows, slots in tiles)
    traces = heard | (draws < np.array(rates)[:, None, None, None])
    counts = score_traces(patterns, traces, cfg.n_active, filter_lens)
    records = [
        [[r.tp, r.fn, r.tn, r.fp] for r in (pair.off, pair.on)] for pair in compare_filtering(cfg)
    ]
    assert counts.sum(axis=1).tolist() == records
    ref = _ref_patterns(cfg.roster(), p, t_slots)
    for rate, rate_counts in zip(rates, counts):
        for m, run_counts in zip(filter_lens, np.moveaxis(rate_counts, 0, 1)):
            expected = [ref_expected_counts(cfg, ref, n_periods, s, rate, m) for s in seeds]
            excess = run_counts[:, [0, 3]] - np.array(expected)  # TP and FP
            bound = 4.0 * excess.std(axis=0, ddof=1) / math.sqrt(cfg.runs)
            assert (abs(excess.mean(axis=0)) <= bound).all(), (rate, m, excess.mean(axis=0), bound)


def test_require_single_point_refuses_grids():
    _point_cfg().require_single_point()
    grids = {"period_ms": (50, 100), "p": (0.1, 0.3), "interference_rate": (0.0, 0.1)}
    for name, grid in grids.items():
        with pytest.raises(ConfigError, match=f"but {name} has 2 values"):
            _point_cfg(**{name: grid}).require_single_point()


def test_compare_filtering_requires_window():
    with pytest.raises(ConfigError):
        compare_filtering(_point_cfg(filter_len=1))


def test_harsher_pathloss_lowers_tp():
    mild = _point_cfg(runs=10, pathloss_exponent=2.0)
    harsh = _point_cfg(runs=10, pathloss_exponent=3.5)
    assert sweep(harsh)[0].tp_rate < sweep(mild)[0].tp_rate


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


def _multi_block_run():
    # 3600 s of 100 ms periods: each node row in whole period spans and a partial one.
    cfg = _point_cfg(sim_length_s=3600.0)
    n_periods = cfg.periods_per_run(100)
    patterns = generate_pattern(cfg.roster()[: cfg.n_active], 0.3, cfg.slots_per_period(100))
    rows, periods = montecarlo._fading_tile(1, cfg.n_active, n_periods, patterns.shape[1])
    assert rows == 1 and n_periods > 3 * periods and n_periods % periods
    return cfg, patterns, n_periods, n_periods * patterns.shape[1]


def _realisation_peak() -> tuple[int, int, int]:
    """The traced peak bytes of one long run's realisation, its active nodes and its slots."""
    cfg, patterns, n_periods, n_slots = _multi_block_run()
    tracemalloc.start()
    try:
        simulate_run_traces(cfg, patterns, n_periods, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, cfg.n_active, n_slots


def test_realisation_memory_is_bounded_per_node_slot():
    # Long enough that the per-block temporaries, a fixed few MB, do not
    # dominate: what must stay bounded is the cost per node-slot.
    peak, n_active, n_slots = _realisation_peak()
    assert peak <= 12 * n_active * n_slots


def test_interference_draws_never_overlap_the_realisation():
    # The run's real parts (8 bytes a node-slot) and its interference draws
    # (8 bytes a slot) are never held together: the draws come after the
    # realisation has freed its arrays.
    peak, n_active, n_slots = _realisation_peak()
    assert peak < 8 * n_active * n_slots + 8 * n_slots


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
    # node-slots (495 at 150 ms periods) go in one batch of 10 runs, which
    # is one tile.
    tiles = _fading_tiles(monkeypatch)
    compare_filtering(_default_cfg(runs=10, filter_len=6))
    assert [rows for rows, _ in tiles] == [10 * 5] * 30
    assert {slots for _, slots in tiles} == {495, 500}


def test_long_run_is_realised_in_period_spans_of_one_node_row(monkeypatch):
    # The benchmark's long-run point: 3600 periods of 100 slots and 5 active
    # nodes a run, each run a batch of its own. 327 periods fill a tile, so
    # a node row goes in 11 spans of 327 periods and one of 3.
    cfg = _default_cfg(
        period_ms=[1000], p=[0.2], interference_rate=[0.05], sim_length_s=3600.0, runs=2
    )
    tiles = _fading_tiles(monkeypatch)
    montecarlo._chunk_counts(cfg, (0,), [(0, 0)])
    assert tiles == ([(1, 32700)] * 11 + [(1, 300)]) * 5 * 2


def test_long_run_thresholds_only_the_beep_columns(monkeypatch):
    # A long-run tile is a span of one node row, and a slot where that node
    # does not beep cannot be heard from it, so detect sees the row's periods
    # times its beep columns: about 20 of 100 slots at p = 0.2, not all 100.
    cfg = _default_cfg(
        period_ms=[1000], p=[0.2], interference_rate=[0.05], sim_length_s=3600.0, runs=1
    )
    sizes = []
    real = montecarlo.detect

    def logged(gains, *args):
        sizes.append(gains.size)
        return real(gains, *args)

    monkeypatch.setattr(montecarlo, "detect", logged)
    montecarlo._chunk_counts(cfg, (0,), [(0, 0)])
    n_periods, t_slots = cfg.periods_per_run(1000), cfg.slots_per_period(1000)
    active = generate_pattern(cfg.roster()[: cfg.n_active], 0.2, t_slots)
    assert sum(sizes) == sum(n_periods * np.count_nonzero(row) for row in active)


def test_a_serial_grid_realises_every_tile_in_one_workspace(monkeypatch):
    # A serial grid is one chunk of cells with one workspace: 100 ms cells
    # come first with tiles of 32 periods of 1000 slots (and a last one of 8),
    # 2000 ms cells follow with one period of 20000, and 4000 ms cells with
    # one period of 40000, a tile past _BLOCK_SLOTS. With a CPU to spare, a
    # run's tiles take the workspace's two noise rows by turns. The blocks
    # are held, so no fresh buffer could take the memory of an earlier one.
    _recording_pool(monkeypatch, cpus=2)
    blocks, workspaces = [], []
    realise, simulate = montecarlo.rayleigh_sequence, montecarlo.simulate_run_traces

    def logged(g0, rho, noise):
        blocks.append(noise)
        return realise(g0, rho, noise)

    def logged_workspace(*args, **kwargs):
        workspaces.append(args[4])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "rayleigh_sequence", logged)
    monkeypatch.setattr(montecarlo, "simulate_run_traces", logged_workspace)
    cfg = _default_cfg(
        runs=2,
        slot_s=0.0001,
        period_ms=[100, 2000, 4000],
        sim_length_s=4.0,
        p=[0.1, 0.5],
        filter_len=6,
    )
    compare_filtering(cfg)
    assert {block.size for block in blocks} == {32000, 8000, 20000, 40000}
    assert all(workspace is workspaces[0] for workspace in workspaces)
    buffers = workspaces[0][0]
    assert len(buffers) == 2 and not np.shares_memory(*buffers)
    used = [[np.shares_memory(block, buffer) for buffer in buffers] for block in blocks]
    assert all(any(shared) for shared in used)
    assert all(any(shared[turn] for shared in used) for turn in (0, 1))


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


@st.composite
def _tiled_runs(draw):
    n_active = draw(st.integers(0, 8))
    cfg = SimConfig(
        n_nodes=max(n_active, 1),
        n_active=n_active,
        slot_s=draw(st.sampled_from([0.005, 0.01])),
        velocity_kmph=draw(st.sampled_from([0.0, 3.0, 120.0])),
        ideal_channel=draw(st.booleans()),
    )
    patterns = draw(arrays(np.bool_, (n_active, draw(st.integers(1, 20)))))
    n_periods = draw(st.integers(1, 30))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), max_size=7))
    # Fading tiles of whole periods of some rows, or spans of one row.
    if draw(st.booleans()):
        rows, periods = draw(st.integers(1, max(n_active, 1))), n_periods
    else:
        rows, periods = 1, draw(st.integers(1, n_periods))
    return (rows, periods), cfg, patterns, n_periods, seeds


def _tiled_run(
    rows: int, periods: int, n_active: int, t_slots: int, n_periods: int, runs: int = 1,
    beeps: list | None = None,
):
    """A tiled case; ``beeps``, if given, lists each node's beep slots in place of its pattern."""
    cfg = SimConfig(n_active=n_active)
    patterns = generate_pattern(cfg.roster()[:n_active], 0.5, t_slots)
    if beeps is not None:
        patterns[:] = False
        for node, slots in enumerate(beeps):
            patterns[node, slots] = True
    return (rows, periods), cfg, patterns, n_periods, list(range(7, 7 + runs))


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
# A tile of two rows that never beep, so no column is thresholded, then a tile
# of two rows that beep in slots 0, 1 and 4.
@example(_tiled_run(2, 3, n_active=4, t_slots=6, n_periods=3, runs=2, beeps=[[], [], [1, 4], [0]]))
# One tile of three rows with disjoint beep columns; slots 2, 4 and 7 are silent.
@example(_tiled_run(3, 2, n_active=3, t_slots=8, n_periods=2, runs=2, beeps=[[0, 1], [3], [5, 6]]))
# Every slot beeps, so every column of every tile is thresholded.
@example(_tiled_run(1, 2, n_active=2, t_slots=5, n_periods=3, runs=2, beeps=[range(5)] * 2))
def test_tiled_realisation_matches_single_block_oracle(case):
    (rows, periods), cfg, patterns, n_periods, seeds = case
    # A bound of exactly the drawn tile over all the given runs.
    size = max(len(seeds), 1) * rows * periods * patterns.shape[1]
    with mock.patch.object(montecarlo, "_BLOCK_SLOTS", size):
        heard, draws = simulate_run_traces(cfg, patterns, n_periods, seeds)
        # A larger workspace left holding stale values gives the same traces.
        stale = np.full((2, size + 3), complex(np.nan, np.inf)), np.full(size + 3, -np.inf)
        again = simulate_run_traces(cfg, patterns, n_periods, seeds, stale)
    assert heard.shape == draws.shape == (len(seeds), n_periods, patterns.shape[1])
    for run, run_seed in enumerate(seeds):
        ref_heard, ref_draws = ref_realise_run(cfg, patterns, n_periods, run_seed)
        assert np.array_equal(heard[run], ref_heard) and np.array_equal(draws[run], ref_draws)
    assert np.array_equal(again[0], heard) and np.array_equal(again[1], draws)


@st.composite
def _multi_tile_runs(draw):
    """Batches of 1-3 runs in two or more fading tiles, at rho 0, 1 or between."""
    # 0 km/h gives rho 1; at 30 km/h J0 is negative and rho clamps to 0.
    velocity = draw(st.one_of(st.sampled_from([0.0, 30.0]), st.floats(0.1, 17.0)))
    if draw(st.booleans()):  # groups of whole rows
        n_active = draw(st.integers(2, 6))
        n_periods = draw(st.integers(1, 8))
        rows, periods = draw(st.integers(1, n_active - 1)), n_periods
    else:  # spans of one row
        n_active = draw(st.integers(1, 4))
        n_periods = draw(st.integers(2, 8))
        rows, periods = 1, draw(st.integers(1, n_periods - 1))
    cfg = SimConfig(n_nodes=n_active, n_active=n_active, velocity_kmph=velocity)
    patterns = draw(arrays(np.bool_, (n_active, draw(st.integers(1, 12)))))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3))
    return (rows, periods), cfg, patterns, n_periods, seeds


@settings(max_examples=100, deadline=None)
@given(_multi_tile_runs())
def test_tiles_drawn_ahead_match_tiles_drawn_inline_and_the_oracle(case):
    (rows, periods), cfg, patterns, n_periods, seeds = case
    t_slots = patterns.shape[1]
    size = len(seeds) * rows * periods * t_slots
    with (
        mock.patch.object(montecarlo, "_BLOCK_SLOTS", size),
        mock.patch.object(montecarlo, "_drawn_ahead", wraps=montecarlo._drawn_ahead) as ahead,
    ):
        assert montecarlo._fading_tile(len(seeds), cfg.n_active, n_periods, t_slots) == (rows, periods)
        inline = simulate_run_traces(cfg, patterns, n_periods, seeds)
        assert ahead.call_count == 0
        drawn_ahead = simulate_run_traces(cfg, patterns, n_periods, seeds, draw_ahead=True)
        assert ahead.call_count == 1
    for heard, draws in (inline, drawn_ahead):
        for run, run_seed in enumerate(seeds):
            ref_heard, ref_draws = ref_realise_run(cfg, patterns, n_periods, run_seed)
            assert np.array_equal(heard[run], ref_heard) and np.array_equal(draws[run], ref_draws)


def test_an_item_drawn_ahead_is_not_touched_while_the_caller_holds_it():
    # Each caller's items take two buffers by turns, as the fading tiles take
    # the workspace's rows: a thread running two items ahead would rewrite the
    # one its caller holds. Four callers and their four draw threads outnumber
    # the cores, and a short switch interval lets them interleave at almost
    # any step.
    def consume(held):
        buffers = [[None], [None]]

        def items():
            for k in range(1000):
                buffers[k % 2][0] = k
                yield buffers[k % 2]

        for item in montecarlo._drawn_ahead(items()):
            held.append([item[0] for _ in range(20)])  # the thread's chance to run on

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        helds = [[] for _ in range(4)]
        callers = [threading.Thread(target=consume, args=(held,)) for held in helds]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(held == [[k] * 20 for k in range(1000)] for held in helds)


class _DrawError(RuntimeError):
    pass


def _ten_tile_cfg() -> SimConfig:
    # 360 periods of 100 slots and 5 active nodes: each node row in a span of
    # 327 periods and one of 33, so the one-run batch has ten tiles.
    return _default_cfg(
        period_ms=[1000], p=[0.2], interference_rate=[0.05], sim_length_s=360.0, runs=1
    )


def test_a_failed_draw_ahead_reaches_the_caller_and_ends_its_thread(monkeypatch):
    # Each run's generator fails on its third draw off the calling thread: the
    # third tile's imaginary parts, which only a draw-ahead thread draws.
    _recording_pool(monkeypatch, cpus=2)
    caller, make = threading.get_ident(), montecarlo.default_rng

    class FailingGenerator:
        def __init__(self, seed):
            self._rng, self._drawn = make(seed), 0

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def standard_normal(self, *args, **kwargs):
            if threading.get_ident() != caller:
                self._drawn += 1
                if self._drawn == 3:
                    raise _DrawError("third tile")
            return self._rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "default_rng", FailingGenerator)
    start = threading.active_count()
    with pytest.raises(_DrawError, match="third tile"):
        sweep(_ten_tile_cfg())
    assert threading.active_count() == start


def test_a_failed_filter_step_ends_the_draw_ahead_thread(monkeypatch):
    _recording_pool(monkeypatch, cpus=2)
    calls, real = [], montecarlo.detect

    def failing(*args):
        calls.append(threading.active_count())
        if len(calls) == 2:
            raise _DrawError("second tile")
        return real(*args)

    monkeypatch.setattr(montecarlo, "detect", failing)
    start = threading.active_count()
    with pytest.raises(_DrawError, match="second tile"):
        sweep(_ten_tile_cfg())
    assert threading.active_count() == start
    assert calls == [start + 1] * 2


def test_no_draw_ahead_thread_outlives_a_sweep(monkeypatch):
    # The benchmark's long-run point at one run: 60 tiles, each but the last
    # filtered while the thread is drawing or holds the next one.
    _recording_pool(monkeypatch, cpus=2)
    counts, real = [], montecarlo.detect

    def counted(*args):
        counts.append(threading.active_count())
        return real(*args)

    monkeypatch.setattr(montecarlo, "detect", counted)
    cfg = _default_cfg(
        period_ms=[1000], p=[0.2], interference_rate=[0.05], sim_length_s=3600.0, runs=1
    )
    start = threading.active_count()
    sweep(cfg)
    assert threading.active_count() == start
    assert len(counts) == 60 and set(counts[:-1]) == {start + 1}


def test_a_one_tile_batch_starts_no_thread(monkeypatch):
    # filter-compare-m6's 30 cells: each batch is one tile, drawn on the
    # calling thread even with a CPU to spare.
    _recording_pool(monkeypatch, cpus=2)
    with mock.patch.object(montecarlo, "_drawn_ahead", wraps=montecarlo._drawn_ahead) as ahead:
        compare_filtering(_default_cfg(runs=10, filter_len=6))
    assert ahead.call_count == 0


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


def test_period_counts_above_255_are_exact():
    # Every id misses each of 300 silent periods: a byte-wide count of the
    # misses would wrap to 44 and accept 256 periods.
    patterns = generate_pattern(range(1, 6), 1.0, 4)
    traces = np.zeros((2, 300, 4), dtype=bool)
    counts = score_traces(patterns, traces, 3, (0, 6))
    assert counts.tolist() == [[[0, 3 * 300, 2 * 300, 0]] * 2] * 2


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
