"""Monte-Carlo experiment harness.

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
import operator
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .channel import (
    ChannelConfig,
    ConfigError,
    detect,
    doppler_correlation,
    finite_real,
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


# The reader of each SimConfig field but ``channel``, in field order: it
# refuses a value of the wrong kind and returns the value normalised.
_FIELD_READERS = {
    "runs": _whole,
    "sim_length_s": finite_real,
    "slot_s": finite_real,
    "period_ms": _grid(_whole),
    "n_nodes": _whole,
    "n_active": _whole,
    "p": _grid(finite_real),
    "interference_rate": _grid(finite_real),
    "filter_len": _whole,
    "ideal_channel": _flag,
    "master_seed": _whole,
}


@dataclass(frozen=True)
class SimConfig:
    """Full experiment parameterization, checked on construction.

    Grid fields (period_ms, p, interference_rate) hold one or more values;
    sweeps cover their Cartesian product while single-run entry points
    require singletons. Frozen: derive a variant with ``dataclasses.replace``,
    which checks it again.
    """

    runs: int = 50
    sim_length_s: float = 5.0
    slot_s: float = 0.010
    period_ms: tuple[int, ...] = DEFAULT_PERIOD_MS_GRID
    n_nodes: int = 10
    n_active: int = 5
    p: tuple[float, ...] = DEFAULT_P_GRID
    interference_rate: tuple[float, ...] = DEFAULT_IR_GRID
    filter_len: int = 0
    ideal_channel: bool = False
    master_seed: int = 1
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self) -> None:
        for name, read in _FIELD_READERS.items():
            object.__setattr__(self, name, read(name, getattr(self, name)))
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if not 0 <= self.n_active <= self.n_nodes:
            raise ConfigError("n_active must be in [0, n_nodes]")
        if self.filter_len < 0:
            raise ConfigError("filter_len must be >= 0")
        if not 0 <= self.master_seed <= MASK64:
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")
        if self.slot_s <= 0:
            raise ConfigError("slot_s must be positive")
        if self.sim_length_s <= 0:
            raise ConfigError("sim_length_s must be positive")
        for p in self.p:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"beep probability {p} outside [0, 1]")
        for rate in self.interference_rate:
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"interference rate {rate} outside [0, 1]")
        for period_ms in self.period_ms:
            # Beyond the float range, period_ms would overflow the slot
            # arithmetic; it is longer than any run anyway.
            if period_ms > sys.float_info.max or self.periods_per_run(period_ms) < 1:
                raise ConfigError(
                    f"period_ms {period_ms} is longer than the {self.sim_length_s}s simulation"
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

    def slots_per_period(self, period_ms: int) -> int:
        slot_ms = self.slot_s * 1000.0
        slots = int(round(period_ms / slot_ms))
        if slots < 1 or abs(slots * slot_ms - period_ms) > 1e-6:
            raise ConfigError(
                f"period {period_ms}ms is not a whole number of {slot_ms}ms slots"
            )
        return slots

    def slots_per_run(self) -> int:
        """Whole slots in one run, counted with slots_per_period's 1e-6 ms tolerance."""
        slot_ms = self.slot_s * 1000.0
        run_ms = self.sim_length_s * 1000.0
        ratio = run_ms / slot_ms
        if not math.isfinite(ratio):
            raise ConfigError(f"simulation length {self.sim_length_s}s overflows the slot count")
        slots = round(ratio)
        return slots if abs(slots * slot_ms - run_ms) <= 1e-6 else math.floor(ratio)

    def periods_per_run(self, period_ms: int) -> int:
        """Complete periods in one run; the trailing partial period is dropped."""
        return self.slots_per_run() // self.slots_per_period(period_ms)

    def roster(self) -> tuple[int, ...]:
        """The candidate universe: the receiver knows and tests every id."""
        return tuple(range(1, self.n_nodes + 1))

    def active_ids(self) -> tuple[int, ...]:
        return self.roster()[: self.n_active]

    def to_dict(self) -> dict:
        """Flat JSON-ready form; channel constants inline alongside the rest."""
        values = ((name, getattr(self, name)) for name in _FIELD_READERS)
        return {
            **{name: list(v) if isinstance(v, tuple) else v for name, v in values},
            **asdict(self.channel),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """Build a config from the flat dict form, rejecting unknown keys."""
        channel_keys = {f.name for f in fields(ChannelConfig)}
        unknown = raw.keys() - _FIELD_READERS.keys() - channel_keys
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        channel = ChannelConfig(**{k: v for k, v in raw.items() if k in channel_keys})
        return cls(channel=channel, **{k: v for k, v in raw.items() if k in _FIELD_READERS})


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
    return rng.uniform(0.0, cfg.channel.area_m, size=(cfg.n_nodes, 2))


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
    rng_intf = np.random.default_rng(derive_seed(run_seed, _STREAM_INTERFERENCE))
    draws = rng_intf.random(n_periods * t_slots).reshape(n_periods, t_slots)
    if cfg.ideal_channel or n_active == 0:
        return np.broadcast_to(active_patterns.any(axis=0), draws.shape), draws

    ch = cfg.channel
    rng_channel = np.random.default_rng(derive_seed(run_seed, _STREAM_CHANNEL))
    positions = _draw_layout(cfg, rng_channel)
    shadows = rng_channel.normal(0.0, ch.shadow_std_db, size=cfg.n_nodes)
    rho = doppler_correlation(ch.velocity_kmph, ch.carrier_hz, cfg.slot_s)
    gain = standard_complex_normal(rng_channel, n_active)
    # Drawn whole: the stream yields every real part before any imaginary one.
    noise = standard_complex_normal(rng_channel, (n_active, n_periods * t_slots))

    budget_dbm = link_budget_dbm(positions[:n_active], shadows[:n_active], ch)[:, None]
    above = np.empty(noise.shape, dtype=bool)
    for start in range(0, noise.shape[1], _BLOCK_SLOTS):
        block = slice(start, start + _BLOCK_SLOTS)
        gains = rayleigh_sequence(gain, rho, noise[:, block])
        gain = gains[:, -1]
        detect(gains, budget_dbm, ch, out=above[:, block])

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
