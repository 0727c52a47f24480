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
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from numpy.random import default_rng

from .channel import (
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

# Slots of fading realised and thresholded at a time, which bounds the
# float temporaries of the link budget whatever the run length.
_BLOCK_SLOTS = 1 << 14


class ConfigError(ValueError):
    """Raised for invalid or inconsistent simulation configuration."""


def finite_real(key: str, value) -> float:
    """``value`` as a float when it is a finite real number.

    Bools, strings, None, containers, NaN and infinities are refused, with
    the config key named; nothing is converted from another kind.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int beyond the float range
            number = float(value)
    if math.isfinite(number):
        return number
    raise ConfigError(f"config key {key!r} has invalid value {value!r}: not a finite real number")


def _whole(key: str, value) -> int:
    """``value`` as an int when it is a whole number; anything else is refused, not truncated."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
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
            raise ConfigError(f"{key} grid must be non-empty")
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
    erase beeps.
    """

    runs: int = _key(50, _within(_whole, 1))
    sim_length_s: float = _key(5.0, _positive)
    slot_s: float = _key(0.010, _positive)
    period_ms: tuple[int, ...] = _key(DEFAULT_PERIOD_MS_GRID, _grid(_within(_whole, 1)))
    # Roster ids run from 1 to n_nodes, and a device id is a u64.
    n_nodes: int = _key(10, _within(_whole, 1, MASK64))
    n_active: int = _key(5, _within(_whole, 0))
    p: tuple[float, ...] = _key(DEFAULT_P_GRID, _unit_grid)
    interference_rate: tuple[float, ...] = _key(DEFAULT_IR_GRID, _unit_grid)
    filter_len: int = _key(0, _within(_whole, 0))
    ideal_channel: bool = _key(False, _flag)
    master_seed: int = _key(1, _within(_whole, 0, MASK64))
    tx_power_dbm: float = _key(-20.0, finite_real)
    sensitivity_dbm: float = _key(-104.0, finite_real)
    shadow_std_db: float = _key(8.0, _within(finite_real, 0))
    carrier_hz: float = _key(2.4e9, _positive)
    pathloss_exponent: float = _key(3.0, finite_real)
    pathloss_ref_db: float = _key(40.05, finite_real)
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


def _draw_layout(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One run's node drop: (n_nodes, 2) positions uniform over the square."""
    return rng.uniform(0.0, cfg.area_m, size=(cfg.n_nodes, 2))


def simulate_run_traces(
    cfg: SimConfig, active_patterns: np.ndarray, n_periods: int, run_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Realise one run's channel, which every interference rate shares.

    Returns ``heard``, the slots in which the receiver senses at least one
    active node, and ``draws``, the uniform draw per slot that puts
    interference in the slot when it falls below the rate. Both have shape
    (n_periods, t_slots); a rate's traces are ``heard | (draws < rate)``.
    """
    n_active, t_slots = active_patterns.shape
    rng_intf = default_rng(derive_seed(run_seed, _STREAM_INTERFERENCE))
    draws = rng_intf.random(n_periods * t_slots).reshape(n_periods, t_slots)
    if cfg.ideal_channel or n_active == 0:
        return np.broadcast_to(active_patterns.any(axis=0), draws.shape), draws

    rng_channel = default_rng(derive_seed(run_seed, _STREAM_CHANNEL))
    positions = _draw_layout(cfg, rng_channel)
    shadows = rng_channel.normal(0.0, cfg.shadow_std_db, size=cfg.n_nodes)
    rho = doppler_correlation(cfg.velocity_kmph, cfg.carrier_hz, cfg.slot_s)
    gain = standard_complex_normal(rng_channel, n_active)
    # Drawn whole: the stream yields every real part before any imaginary one.
    noise = standard_complex_normal(rng_channel, (n_active, n_periods * t_slots))

    budget_dbm = link_budget_dbm(positions[:n_active], shadows[:n_active], cfg)[:, None]
    above = np.empty(noise.shape, dtype=bool)
    for start in range(0, noise.shape[1], _BLOCK_SLOTS):
        block = slice(start, start + _BLOCK_SLOTS)
        gains = rayleigh_sequence(gain, rho, noise[:, block])
        gain = gains[:, -1]
        detect(gains, budget_dbm, cfg, out=above[:, block])

    detected = above.reshape(n_active, n_periods, t_slots)
    detected &= active_patterns[:, None, :]
    return detected.any(axis=0), draws


def score_traces(
    patterns: np.ndarray,
    traces: np.ndarray,
    n_active: int,
    filter_lens: Sequence[int],
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
    accepted = n_periods - uncovered(observed, patterns).sum(axis=-2, dtype=np.int64)
    hits = accepted[..., :n_active].sum(axis=-1)
    false_hits = accepted[..., n_active:].sum(axis=-1)
    n_silent = len(patterns) - n_active
    return np.stack(
        [hits, n_active * n_periods - hits, n_silent * n_periods - false_hits, false_hits],
        axis=-1,
    )


def _point_counts(task: tuple[SimConfig, int, int, Sequence[int], Sequence[int]]) -> np.ndarray:
    """Counts of one (period index, p index) grid cell, summed over the given run seeds.

    Each run's channel is realised once and observed at every configured
    interference rate. Returns int64 (tp, fn, tn, fp) counts of shape
    (interference rates, filter lengths, 4).
    """
    cfg, ti, pi, run_seeds, filter_lens = task
    period_ms = cfg.period_ms[ti]
    patterns = generate_pattern(cfg.roster(), cfg.p[pi], cfg.slots_per_period(period_ms))
    n_periods = cfg.periods_per_run(period_ms)
    rates = np.array(cfg.interference_rate)[:, None, None]
    counts = np.zeros((len(cfg.interference_rate), len(filter_lens), 4), dtype=np.int64)
    for run_seed in run_seeds:
        heard, draws = simulate_run_traces(cfg, patterns[: cfg.n_active], n_periods, run_seed)
        counts += score_traces(patterns, heard | (draws < rates), cfg.n_active, filter_lens)
        # Freed before the next run realises its channel: holding them across
        # the realisation fragments the heap and raises peak memory.
        del heard, draws
    return counts


def run_seed_for(cfg: SimConfig, t_index: int, p_index: int, run_index: int) -> int:
    """Seed for one run; interference rate intentionally not an input (pairing)."""
    return derive_seed(cfg.master_seed, t_index, p_index, run_index)


def _grid_records(
    cfg: SimConfig, filter_lens: tuple[int, ...], threads: int
) -> list[tuple[MetricsRecord, ...]]:
    """One record per filter length at every (period, p, interference rate) point, in grid order.

    Point results are independent of scheduling: seeds derive from grid
    coordinates, and cells come back in grid order, so any thread count
    produces identical output.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    cells = [(ti, pi) for ti in range(len(cfg.period_ms)) for pi in range(len(cfg.p))]
    tasks = [
        (cfg, ti, pi, [run_seed_for(cfg, ti, pi, r) for r in range(cfg.runs)], filter_lens)
        for ti, pi in cells
    ]
    # No more workers than tasks: the pool forks all of them up front.
    workers = min(threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(tasks) // (workers * 4))
            cell_counts = list(pool.map(_point_counts, tasks, chunksize=chunksize))
    else:
        cell_counts = [_point_counts(task) for task in tasks]

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
