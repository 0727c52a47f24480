"""Monte-Carlo experiment harness and the package's one config class, ``SimConfig``.

Each run drops nodes uniformly in a square with the receiver at the
center, lets the first n_active roster ids re-emit their fixed beep
patterns back to back for the simulated duration, pushes every beep
through the radio model, and scores identification after every period:
an active id identified is a true positive, a silent id identified is a
false positive. Sweeps cover the Cartesian grid of period length, beep
probability, and interference rate, aggregating counts over a fixed
number of independent runs per point.

Seeding: every run's randomness derives from (master_seed, period index,
probability index, run index). The interference-rate coordinate is
deliberately excluded and interference consumes its own substream, so
runs at different interference rates share layouts, shadowing, and fading
draw for draw; raising the rate can then only add observed slots, which
is what makes paired interference comparisons exact.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import threading
from contextlib import closing, suppress
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Iterator, Sequence

import numpy as np
from numpy.random import default_rng

from .channel import (
    _INV_SQRT2,
    detect,
    doppler_correlation,
    link_budget_dbm,
    rayleigh_sequence,
    standard_complex_normal,
)
from .fingerprint import MASK64, derive_seed, generate_pattern
from .identify import filter_apply, uncovered
from .identify import filter_push, identify  # noqa: F401 - perfbench/child.py wraps them here

DEFAULT_PERIOD_MS_GRID = (50, 100, 150, 200, 500, 1000)
DEFAULT_P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_IR_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)

# Substream tags hung off each run seed.
_STREAM_CHANNEL = 1
_STREAM_INTERFERENCE = 2

# The node-slots of a batch and of a fading tile. A tile's arrays take at most
# 41 bytes a node-slot (complex noise, complex gains, and where a node of the
# tile beeps a float envelope and the flags), 1.3 MB at 2^15, within a 2 MB
# per-core L2 cache; 2^16 measured no faster on a 2-core Xeon with 2 MB of L2
# a core.
_BLOCK_SLOTS = 1 << 15


class ConfigError(ValueError):
    """Raised for invalid or inconsistent simulation configuration."""


def finite_real(key: str, value) -> float:
    """``value`` as a float when it is a finite real number; -0.0 reads as 0.0.

    Bools, strings, None, containers, NaN and infinities are refused, with
    the config key named; nothing is converted from another kind.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int beyond the float range
            number = float(value)
    if math.isfinite(number):
        return number + 0.0
    raise ConfigError(f"config key {key!r} has invalid value {value!r}: not a finite real number")


def _whole(key: str, value) -> int:
    """``value`` as an int when it is a whole number; anything else is refused, not truncated."""
    if isinstance(value, float):
        if value.is_integer():
            if abs(value) < 2.0**53:
                return int(value)
            raise ConfigError(
                f"config key {key!r} has invalid value {value!r}: a float this large"
                " spells no single whole number; write it as an integer"
            )
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"config key {key!r} has invalid value {value!r}: not a whole number")


def _flag(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"config key {key!r} has invalid value {value!r}: not a bool")


def _grid(read):
    """A reader for a non-empty grid of ``read``'s kind; a lone value is a one-point grid."""

    def read_grid(key: str, value) -> tuple:
        values = tuple(value) if isinstance(value, (list, tuple)) else (value,)
        if not values:
            raise ConfigError(f"config key {key!r} has invalid value {value!r}: an empty grid")
        return tuple(read(key, v) for v in values)

    return read_grid


def _within(read, lo, hi=math.inf, *, above: bool = False):
    """A reader of ``read``'s kind that refuses values outside [lo, hi], or (lo, hi] if ``above``."""
    interval = f"{'(' if above else '['}{lo}, {hi}{']' if hi < math.inf else ')'}"

    def read_within(key: str, value):
        number = read(key, value)
        if (lo < number if above else lo <= number) and number <= hi:
            return number
        raise ConfigError(f"config key {key!r} has invalid value {value!r}: outside {interval}")

    return read_within


def _key(default, read):
    """A SimConfig field: its default and the reader that checks and normalises its value."""
    return field(default=default, metadata={"read": read})


_positive = _within(finite_real, 0, above=True)
_unit_grid = _grid(_within(finite_real, 0, 1))


@dataclass(frozen=True)
class SimConfig:
    """Full experiment parameterization, checked on construction.

    Each field declares its default and its reader, which refuses a value
    of the wrong kind or outside the key's range and names the key. The
    readers run in field order on construction; then three checks that
    tie two keys together: n_active <= n_nodes, sensitivity_dbm below
    tx_power_dbm, and each period_ms a whole number of slots that fits in
    the run. Frozen: derive a variant with ``dataclasses.replace``, which
    checks it again.

    Grid fields (period_ms, p, interference_rate) hold one or more values;
    sweeps cover their Cartesian product while single-run entry points
    require singletons.

    The radio constants default to a 100 m x 100 m deployment of 10 uW
    (-20 dBm) nodes heard by a -104 dBm receiver at 2.4 GHz. The
    log-distance exponent of 3.0 with a 40.05 dB reference loss at 1 m
    (free space, 2.4 GHz) describes a cluttered environment in which far
    nodes sit near or below the sensitivity floor, so fast fades routinely
    erase beeps. The dB constants' ranges keep every link budget finite.
    """

    runs: int = _key(50, _within(_whole, 1))
    sim_length_s: float = _key(5.0, _positive)
    slot_s: float = _key(0.010, _positive)
    period_ms: tuple[int, ...] = _key(DEFAULT_PERIOD_MS_GRID, _grid(_within(_whole, 1)))
    # Roster ids run from 1 to n_nodes, a count no larger than the largest array index.
    n_nodes: int = _key(10, _within(_whole, 1, np.iinfo(np.intp).max))
    n_active: int = _key(5, _within(_whole, 0))
    p: tuple[float, ...] = _key(DEFAULT_P_GRID, _unit_grid)
    interference_rate: tuple[float, ...] = _key(DEFAULT_IR_GRID, _unit_grid)
    filter_len: int = _key(0, _within(_whole, 0))
    ideal_channel: bool = _key(False, _flag)
    master_seed: int = _key(1, _within(_whole, 0, MASK64))
    tx_power_dbm: float = _key(-20.0, _within(finite_real, -300, 300))
    sensitivity_dbm: float = _key(-104.0, _within(finite_real, -300, 300))
    shadow_std_db: float = _key(8.0, _within(finite_real, 0, 100))
    carrier_hz: float = _key(2.4e9, _positive)
    pathloss_exponent: float = _key(3.0, _within(finite_real, 0, 10))
    pathloss_ref_db: float = _key(40.05, _within(finite_real, 0, 300))
    area_m: float = _key(100.0, _positive)
    velocity_kmph: float = _key(3.0, _within(finite_real, 0))

    def __post_init__(self) -> None:
        for key in fields(self):
            value = key.metadata["read"](key.name, getattr(self, key.name))
            object.__setattr__(self, key.name, value)
        if self.n_active > self.n_nodes:
            raise ConfigError(f"n_active {self.n_active} exceeds n_nodes {self.n_nodes}")
        if self.sensitivity_dbm >= self.tx_power_dbm:
            raise ConfigError(
                f"sensitivity_dbm {self.sensitivity_dbm} must sit below "
                f"tx_power_dbm {self.tx_power_dbm}"
            )
        for period_ms in self.period_ms:
            if self.periods_per_run(period_ms) < 1:
                raise ConfigError(
                    f"period_ms {period_ms} is longer than sim_length_s {self.sim_length_s}"
                )

    def require_single_point(self) -> None:
        """Refuse a grid: a single-run entry point needs one value per grid field."""
        for name in ("period_ms", "p", "interference_rate"):
            count = len(getattr(self, name))
            if count != 1:
                raise ConfigError(
                    f"a single parameter point needs one value per grid, but {name} "
                    f"has {count} values (sweep covers a grid)"
                )

    def _slots(self, key: str, span: float, unit_ms: float = 1.0) -> tuple[int, bool]:
        """Slots in ``span`` units of ``unit_ms`` ms, and whether they fill it to within 1e-6 ms.

        The count is rounded when they do and floored otherwise. A span beyond
        the float range and a count no array can hold are refused, naming ``key``.
        """
        slot_ms = self.slot_s * 1000.0
        slots = limit = np.iinfo(np.intp).max
        with suppress(OverflowError, ValueError):  # a span or ratio beyond the float range
            span_ms = span * unit_ms
            ratio = span_ms / slot_ms
            slots = round(ratio)
        if slots >= limit:
            raise ConfigError(f"{key} {span} overflows the slot count at slot_s {self.slot_s}")
        whole = abs(slots * slot_ms - span_ms) <= 1e-6
        return (slots, True) if whole else (math.floor(ratio), False)

    def slots_per_period(self, period_ms: int) -> int:
        slots, whole = self._slots("period_ms", period_ms)
        if slots < 1 or not whole:
            raise ConfigError(
                f"period_ms {period_ms} is not a whole number of slot_s {self.slot_s} slots"
            )
        return slots

    def periods_per_run(self, period_ms: int) -> int:
        """Complete periods in one run; the trailing partial period is dropped."""
        run_slots, _ = self._slots("sim_length_s", self.sim_length_s, 1000.0)
        return run_slots // self.slots_per_period(period_ms)

    def roster(self) -> tuple[int, ...]:
        """The candidate universe: the receiver knows and tests every id."""
        return tuple(range(1, self.n_nodes + 1))

    def to_dict(self) -> dict:
        """Flat JSON-ready form, one key per field in field order; grids as lists."""
        values = ((key.name, getattr(self, key.name)) for key in fields(self))
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values}

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """Build a config from the flat dict form, rejecting unknown keys."""
        unknown = raw.keys() - {key.name for key in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class MetricsRecord:
    """Identification counts and rates for one parameter point."""

    t_ms: int
    p: float
    interference_rate: float
    filter_len: int
    runs: int
    events: int
    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def tp_rate(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else math.nan

    @property
    def tn_rate(self) -> float:
        return self.tn / (self.tn + self.fp) if self.tn + self.fp else math.nan


@dataclass(frozen=True)
class FilterComparison:
    """Unfiltered and filtered records of one parameter point, scored on the same runs."""

    off: MetricsRecord
    on: MetricsRecord

    @property
    def tp_gain(self) -> float:
        return self.on.tp_rate - self.off.tp_rate

    @property
    def tn_loss(self) -> float:
        return self.off.tn_rate - self.on.tn_rate

    @property
    def net(self) -> float:
        return self.tp_gain - self.tn_loss


def _fading_tile(n_runs: int, n_active: int, n_periods: int, t_slots: int) -> tuple[int, int]:
    """The ``(rows, periods)`` of a fading tile over ``n_runs`` runs.

    A tile spans the runs in whole node rows, or else in whole periods of
    one row, and holds at most ``_BLOCK_SLOTS`` node-slots, or else one
    period of one row of each run. The size bounds the float temporaries
    whatever the run length and run count; no size changes a byte.
    """
    rows = min(n_active, max(1, _BLOCK_SLOTS // (n_runs * n_periods * t_slots)))
    return rows, min(n_periods, max(1, _BLOCK_SLOTS // (n_runs * t_slots)))


def simulate_run_traces(
    cfg: SimConfig, active_patterns: np.ndarray, n_periods: int, run_seeds: Sequence[int],
    workspace: tuple[np.ndarray, np.ndarray] | None = None, *, draw_ahead: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Realise the channel of a batch of runs, which every interference rate shares.

    Returns ``heard``, the slots in which the receiver senses at least one
    active node, and ``draws``, the uniform draw per slot that puts
    interference in the slot when it falls below the rate. Both have shape
    (len(run_seeds), n_periods, t_slots), one row per seed in order; a
    rate's traces are ``heard | (draws < rate)``. Each run's interference
    has a generator of its own, so it is drawn after the channel, once the
    realisation's arrays are freed, and no draw order moves a byte: a long
    run peaks at about 9.2 bytes per active node-slot at 5 active nodes, not
    the 10.4 of an 8-byte draw per slot held beside the real parts.
    ``workspace``, fresh by default, is the fading tiles' memory: a complex
    array of shape (2, n) and a float array of shape (n,), n at least a
    tile's node-slots (``_fading_tile``), whatever values they hold.
    ``draw_ahead`` draws each next tile on a thread (``_realise_heard``).
    """
    heard = _realise_heard(cfg, active_patterns, n_periods, run_seeds, workspace, draw_ahead)
    draws = np.empty(heard.shape)
    for run_seed, run_draws in zip(run_seeds, draws):
        default_rng(derive_seed(run_seed, _STREAM_INTERFERENCE)).random(out=run_draws)
    return heard, draws


def _realise_heard(
    cfg: SimConfig, active_patterns: np.ndarray, n_periods: int, run_seeds: Sequence[int],
    workspace: tuple[np.ndarray, np.ndarray] | None, draw_ahead: bool,
) -> np.ndarray:
    """The ``heard`` slots of ``simulate_run_traces``, shape (runs, n_periods, t_slots).

    Each run draws from its own channel generator in the same order whatever
    the batch. Its fading noise, the (n_active, n_periods * t_slots) complex
    normals of ``standard_complex_normal``, yields every real part before
    any imaginary part, both node-major. So the real parts of every given
    run are drawn and held whole (8 bytes per node-slot), and the imaginary
    parts are drawn in stream order, one fading tile of the given runs at a
    time (``_fading_noise``), each filtered once drawn, its AR(1) gains
    continuing from the previous tile of the same nodes. A slot where no
    node of the tile's rows beeps is heard by none of them, so only the
    gains of the rows' beep columns are gathered, thresholded and ANDed with
    the rows' patterns. No run-length complex array exists, and the real
    parts die on return.

    With ``draw_ahead`` and two or more tiles, a thread draws tile k + 1
    while this one filters tile k (``_drawn_ahead``; both kernels release
    the GIL), the tiles' noise taking the two rows of ``workspace``'s
    complex array by turns; else each tile is drawn here, into the first
    row. Only this thread calls the traced functions, and no byte moves
    either way. A tile's gathered gains then reuse its noise row, and their
    envelope the float array.
    """
    n_active, t_slots = active_patterns.shape
    n_runs, n_slots = len(run_seeds), n_periods * t_slots
    if cfg.ideal_channel or n_active == 0 or n_runs == 0:
        return np.broadcast_to(active_patterns.any(axis=0), (n_runs, n_periods, t_slots))

    rngs = [default_rng(derive_seed(run_seed, _STREAM_CHANNEL)) for run_seed in run_seeds]
    positions = np.empty((n_runs, n_active, 2))
    shadows = np.empty((n_runs, n_active))
    gain = np.empty((n_runs, n_active), dtype=np.complex128)
    real = np.empty((n_runs, n_active, n_slots))
    for run, rng in enumerate(rngs):
        positions[run] = rng.uniform(0.0, cfg.area_m, size=(cfg.n_nodes, 2))[:n_active]
        shadows[run] = rng.normal(0.0, cfg.shadow_std_db, size=cfg.n_nodes)[:n_active]
        gain[run] = standard_complex_normal(rng, n_active)
        rng.standard_normal(out=real[run])
    rho = doppler_correlation(cfg.velocity_kmph, cfg.carrier_hz, cfg.slot_s)
    budget_dbm = link_budget_dbm(positions.reshape(-1, 2), shadows.reshape(-1), cfg)
    budget_dbm = budget_dbm.reshape(n_runs, n_active, 1, 1)

    rows, periods = _fading_tile(n_runs, n_active, n_periods, t_slots)
    size = n_runs * rows * periods * t_slots
    tiles = [
        (slice(row, row + rows), slice(period, period + periods))
        for row in range(0, n_active, rows)
        for period in range(0, n_periods, periods)
    ]
    buffers, envelope = workspace or (np.empty((2, size), dtype=np.complex128), np.empty(size))
    ahead = draw_ahead and len(tiles) > 1
    noises = _fading_noise(rngs, real, [buffers[turn] for turn in range(1 + ahead)], tiles, t_slots)
    heard = np.zeros((n_runs, n_periods, t_slots), dtype=bool)
    with closing(_drawn_ahead(noises) if ahead else noises) as noises:
        for (nodes, span), noise in zip(tiles, noises):
            if span.start == 0:  # a row group's first tile
                cols = np.flatnonzero(active_patterns[nodes].any(axis=0))
                beeps = active_patterns[nodes][:, None, cols]
                g = gain[:, nodes].reshape(-1)
            gains = rayleigh_sequence(g, rho, noise.reshape(len(g), -1))
            g = gains[:, -1]
            # Filtered, the noise is spent: its slots take the beep columns' gains.
            # mode="clip" writes into out directly; "raise" would buffer it.
            block = gains.reshape(noise.shape[:2] + (-1, t_slots))
            shape = block.shape[:3] + cols.shape
            picked = noise.reshape(-1)[: math.prod(shape)].reshape(shape)
            np.take(block, cols, axis=-1, out=picked, mode="clip")
            rx_dbm = envelope[: picked.size].reshape(picked.shape)
            flags = detect(picked, budget_dbm[:, nodes], cfg, rx_dbm)
            flags &= beeps
            heard[:, span, cols] |= flags.any(axis=1)
    return heard


def _fading_noise(
    rngs: list, real: np.ndarray, buffers: list, tiles: list, t_slots: int
) -> Iterator[np.ndarray]:
    """The complex fading noise of each ``(nodes, span)`` tile in turn, in ``buffers`` by turns.

    A tile's real parts come from ``real``, (runs, n_active, n_slots). Scaled,
    they are spent: their slots take the tile's imaginary parts, drawn from
    each run's generator in stream order, and then scaled in their turn.
    """
    for k, (nodes, span) in enumerate(tiles):
        parts = real[:, nodes, span.start * t_slots : span.stop * t_slots]
        noise = buffers[k % len(buffers)][: parts.size].reshape(parts.shape)
        np.multiply(parts, _INV_SQRT2, out=noise.real)
        for rng, run_parts in zip(rngs, parts):
            rng.standard_normal(out=run_parts)
        np.multiply(parts, _INV_SQRT2, out=noise.imag)
        yield noise


def _drawn_ahead(items: Iterator) -> Iterator:
    """``items``, each next one made on a thread while the caller holds the current one.

    The thread makes item k + 1 while the caller holds item k, and item
    k + 2 only once the caller asks for item k + 1, so an item may reuse the
    memory of the one two before it. An error raised making an item reaches
    the caller in its place, and the thread has ended once this generator
    has, however it ends.
    """
    # concurrent.futures would do this too, at a 6-9 ms import that a serial
    # run would pay; threading is already loaded.
    made, wanted = threading.Semaphore(0), threading.Semaphore(0)
    handoff = []
    failure = None
    stopped = False

    def make():
        nonlocal failure
        try:
            for item in items:
                handoff.append(item)
                made.release()
                wanted.acquire()
                if stopped:
                    return
        except BaseException as error:  # raised again on the caller's thread
            failure = error
        made.release()  # with nothing handed off: the items ended or failed

    thread = threading.Thread(target=make)
    thread.start()
    try:
        while True:
            made.acquire()
            if not handoff:
                if failure is not None:
                    raise failure
                return
            item = handoff.pop()
            wanted.release()
            yield item
    finally:
        stopped = True
        wanted.release()
        thread.join()


def score_traces(
    patterns: np.ndarray, traces: np.ndarray, n_active: int, filter_lens: Sequence[int]
) -> np.ndarray:
    """Identify after every period and tally (tp, fn, tn, fp) for each filter length.

    ``patterns`` holds the roster's beep flags, shape (n_ids, t_slots),
    active ids first; ``traces`` holds per-period union traces, shape
    (..., n_periods, t_slots). With a filter length of 2 or more, each
    period is scored on the OR of the window accumulated so far, so every
    period yields one identification event. Returns int64 counts of shape
    (..., len(filter_lens), 4).
    """
    # A window under 2 leaves the traces as they are; skipping the call for
    # it keeps the benchmark's filter_apply span to filtered scoring.
    observed = np.stack(
        [filter_apply(traces, m) if m >= 2 else traces for m in filter_lens], axis=-3
    )
    n_periods = traces.shape[-2]
    # Summing the missed flags as bytes into int64 beats a strided bool sum 2-4x;
    # a byte-wide total would wrap past 255 periods.
    missed = uncovered(observed, patterns).view(np.uint8)
    accepted = n_periods - np.einsum("...pi->...i", missed, dtype=np.int64)
    hits = accepted[..., :n_active].sum(axis=-1)
    false_hits = accepted[..., n_active:].sum(axis=-1)
    n_silent = len(patterns) - n_active
    return np.stack(
        [hits, n_active * n_periods - hits, n_silent * n_periods - false_hits, false_hits],
        axis=-1,
    )


def run_seed_for(cfg: SimConfig, t_index: int, p_index: int, run_index: int) -> int:
    """Seed for one run; interference rate intentionally not an input (pairing)."""
    return derive_seed(cfg.master_seed, t_index, p_index, run_index)


def _chunk_counts(
    cfg: SimConfig, filter_lens: Sequence[int], cells: Sequence[tuple[int, int]],
    *, draw_ahead: bool = False,
) -> list[np.ndarray]:
    """Counts of each (period index, p index) grid cell of a chunk, summed over its runs.

    A cell's runs are realised and scored in batches of whole runs of at most
    ``_BLOCK_SLOTS`` active node-slots, or else of one run, each batch deriving
    its own run seeds. Each run's channel is realised once and observed at
    every interference rate. Fresh fading tiles per batch would go back to
    the kernel between batches and fault in again, about 8,400 minor page
    faults (15-40 ms) per 180-cell ``compare_filtering`` call, so the chunk
    realises every tile in one workspace. By ``_fading_tile`` a tile holds at
    most ``_BLOCK_SLOTS`` node-slots, or one period of a one-run batch, so
    the workspace holds the larger, in each of its two noise rows: one tile
    is drawn while another filters with ``draw_ahead`` (``_realise_heard``),
    and without it the second row is never touched, so never faulted in.
    Returns int64 (tp, fn, tn, fp) counts of shape (interference rates,
    filter lengths, 4) per cell.
    """
    periods_ms = [cfg.period_ms[ti] for ti, _ in cells]
    shapes = [(cfg.slots_per_period(t), cfg.periods_per_run(t)) for t in periods_ms]
    size = max(_BLOCK_SLOTS, *(t_slots for t_slots, _ in shapes))
    workspace = np.empty((2, size), dtype=np.complex128), np.empty(size)
    rates = np.array(cfg.interference_rate)[:, None, None, None]
    chunk_counts = []
    for (ti, pi), (t_slots, n_periods) in zip(cells, shapes):
        batch = max(1, _BLOCK_SLOTS // (max(cfg.n_active, 1) * n_periods * t_slots))
        patterns = generate_pattern(cfg.roster(), cfg.p[pi], t_slots)
        active = patterns[: cfg.n_active]
        counts = np.zeros((len(cfg.interference_rate), len(filter_lens), 4), dtype=np.int64)
        for first in range(0, cfg.runs, batch):
            seeds = [run_seed_for(cfg, ti, pi, r) for r in range(first, cfg.runs)[:batch]]
            heard, draws = simulate_run_traces(
                cfg, active, n_periods, seeds, workspace, draw_ahead=draw_ahead
            )
            traces = heard | (draws < rates)
            counts += score_traces(patterns, traces, cfg.n_active, filter_lens).sum(axis=1)
            # Freed before the next batch realises its channel: holding them across
            # the realisation fragments the heap and raises peak memory.
            del heard, draws, traces
        chunk_counts.append(counts)
    return chunk_counts


def _grid_records(
    cfg: SimConfig, filter_lens: tuple[int, ...], threads: int
) -> list[tuple[MetricsRecord, ...]]:
    """One record per filter length at every (period, p, interference rate) point, in grid order.

    Point results are independent of scheduling: seeds derive from grid
    coordinates, and cells come back in grid order, so any thread count
    produces identical output. The pool module is imported only when
    workers start, so a serial run never loads it. Where every worker has
    a usable CPU to spare, each draws its runs' next fading tile on a
    thread; a draw thread sharing a CPU costs more than it saves.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    cells = [(ti, pi) for ti in range(len(cfg.period_ms)) for pi in range(len(cfg.p))]
    # No more workers than cells or usable CPUs: the pool forks all of them up front.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    workers = min(threads, len(cells), cpus)
    size = max(1, len(cells) // (workers * 4)) if workers > 1 else len(cells)
    chunks = [cells[first : first + size] for first in range(0, len(cells), size)]
    count_chunk = partial(_chunk_counts, cfg, filter_lens, draw_ahead=2 * workers <= cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_counts = list(pool.map(count_chunk, chunks))
    else:
        chunk_counts = map(count_chunk, chunks)
    cell_counts = [counts for chunk in chunk_counts for counts in chunk]

    records = []
    for (ti, pi), counts in zip(cells, cell_counts):
        period_ms = cfg.period_ms[ti]
        events = cfg.periods_per_run(period_ms) * cfg.runs
        for rate, rate_counts in zip(cfg.interference_rate, counts.tolist()):
            records.append(
                tuple(
                    MetricsRecord(period_ms, cfg.p[pi], rate, m, cfg.runs, events, *tally)
                    for m, tally in zip(filter_lens, rate_counts)
                )
            )
    return records


def sweep(cfg: SimConfig, threads: int = 1) -> list[MetricsRecord]:
    """Metrics for the full (period, p, interference rate) grid, in grid order."""
    return [record for (record,) in _grid_records(cfg, (cfg.filter_len,), threads)]


def compare_filtering(cfg: SimConfig, threads: int = 1) -> list[FilterComparison]:
    """Unfiltered and filtered records over the grid, from the same simulated runs.

    Both scorings consume identical traces (filtering is receiver-side
    post-processing), which realizes the paired-seed comparison exactly.
    """
    if cfg.filter_len < 2:
        raise ConfigError("compare_filtering needs filter_len >= 2")
    pairs = _grid_records(cfg, (0, cfg.filter_len), threads)
    return [FilterComparison(off, on) for off, on in pairs]
