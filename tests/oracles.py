"""Independent reference implementations the tests check the package against.

Everything here is deliberately written against different machinery than
the package (a Python-int SplitMix64 stepped word by word and a scorer on
int bit masks instead of uint64 and bool arrays, one boolean coverage
product instead of float32 tiles, a windowed cumulative count instead of
lagged ORs, a direct Taylor series
instead of scipy, whole-array complex arithmetic instead of blocked float
pairs, a per-node, per-slot scalar radio instead of the array link budget)
so the two sides of each check cannot share a bug.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

MASK64 = (1 << 64) - 1


def ref_splitmix64(seed: int, count: int) -> list[int]:
    """SplitMix64 output words, stepping a Python-int state one word at a time."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed out of u64 range: {seed}")
    state = seed
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def ref_pattern_slots(device_id: int, p: float, period_slots: int) -> list[int]:
    """Per-slot beep flags derived straight from the reference generator."""
    threshold = (1 << 64) if p >= 1.0 else int(p * 2.0**64)
    words = ref_splitmix64(device_id, period_slots)
    return [1 if w < threshold else 0 for w in words]


def ref_pattern_bits(device_id: int, p: float, period_slots: int) -> int:
    """The pattern as a little-endian int mask: slot t (1-indexed) is bit t-1."""
    return _bits(ref_pattern_slots(device_id, p, period_slots))


def _bits(flags) -> int:
    return sum(1 << t for t, flag in enumerate(flags) if flag)


def ref_score_traces(
    traces, roster, active_ids, p: float, filter_len: int
) -> tuple[int, int, int, int]:
    """Identify after every period on int bit masks and tally (tp, fn, tn, fp).

    ``traces`` is a sequence of per-period rows of slot flags, slot 1 first.
    With filter_len >= 2, each period is scored on the OR of the last
    filter_len traces (partial until that many have arrived). An id is
    accepted when its pattern has no bit outside the observation.
    """
    active = frozenset(active_ids)
    patterns = {}
    window = deque(maxlen=max(filter_len, 1))
    tp = fn = tn = fp = 0
    for row in traces:
        window.append(_bits(row))
        observed = 0
        for bits in window:
            observed |= bits
        for device_id in roster:
            if device_id not in patterns:
                patterns[device_id] = ref_pattern_bits(device_id, p, len(row))
            accepted = patterns[device_id] & ~observed == 0
            if device_id in active:
                tp, fn = tp + accepted, fn + (not accepted)
            else:
                fp, tn = fp + accepted, tn + (not accepted)
    return tp, fn, tn, fp


def ref_coverage_prob(n: int, p: float, k: int) -> float:
    """Probability that k fixed slots are each covered by at least one of n Bernoulli(p) beepers."""
    return (1 - (1 - p) ** n) ** k


def ref_uncovered(observed: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """The coverage rule as one boolean matrix product: True where an id has an unobserved beep."""
    return ~observed @ patterns.T


def ref_filter_apply(unions: np.ndarray, filter_len: int) -> np.ndarray:
    """The OR window as a count: a slot is observed where the last filter_len periods heard it."""
    if filter_len < 2:
        return unions
    heard_count = np.cumsum(unions, axis=-2, dtype=np.int32)
    heard_count[..., filter_len:, :] = (
        heard_count[..., filter_len:, :] - heard_count[..., :-filter_len, :]
    )
    return heard_count > 0


def bessel_j0_series(x: float) -> float:
    """J0 by direct Taylor series: sum (-1)^k (x^2/4)^k / (k!)^2.

    Converges fast for the small arguments the Doppler model produces;
    terms are added until below 1e-16, giving absolute error well under
    1e-6 for |x| <= 10.
    """
    q = x * x / 4.0
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-16:
            break
    return total


def ref_standard_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-power complex Gaussians built from complex temporaries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def ref_rayleigh_sequence(g0: np.ndarray, rho: float, noise: np.ndarray) -> np.ndarray:
    """AR(1) fading as one complex lfilter over the scaled noise."""
    scaled = math.sqrt(1.0 - rho * rho) * noise
    gains, _ = lfilter([1.0], [1.0, -rho], scaled, axis=1, zi=(rho * np.asarray(g0))[:, None])
    return gains


@dataclass
class NodeRadio:
    """Per-node radio state: fixed position and shadowing, evolving fast fading."""

    position: tuple[float, float]
    shadow_db: float
    rayleigh_gain: complex


@dataclass(frozen=True)
class SlotOutcome:
    """What the receiver's carrier sense resolved for one slot."""

    per_node_detected: tuple[int, ...]
    interference_on: int
    union_bit: int


def advance_rayleigh(gain: complex, rho: float, noise: complex) -> complex:
    """One AR(1) fading step: rho * gain + sqrt(1 - rho^2) * noise."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    return rho * gain + math.sqrt(1.0 - rho * rho) * noise


def received_power_dbm(radio: NodeRadio, rx_position: tuple[float, float], cfg) -> float:
    """Instantaneous received power: TX - pathloss + shadowing + fading gain."""
    distance = max(math.dist(radio.position, rx_position), 1.0)
    pathloss = cfg.pathloss_ref_db + 10.0 * cfg.pathloss_exponent * math.log10(distance)
    magnitude = abs(radio.rayleigh_gain)
    fade_db = 20.0 * math.log10(magnitude) if magnitude > 0.0 else -math.inf
    return cfg.tx_power_dbm - pathloss + radio.shadow_db + fade_db


def detect_slot(active_beeps, radios, rx_position, cfg, interference_on: int) -> SlotOutcome:
    """Resolve one slot of carrier sensing.

    A node registers iff it beeped and its received power clears the
    sensitivity threshold; the union bit adds external interference, which
    saturates carrier sense regardless of node activity.
    """
    active_beeps = tuple(active_beeps)
    radios = tuple(radios)
    if len(active_beeps) != len(radios):
        raise ValueError("one beep flag is required per radio")
    detected = tuple(
        int(bool(beep) and received_power_dbm(radio, rx_position, cfg) >= cfg.sensitivity_dbm)
        for beep, radio in zip(active_beeps, radios)
    )
    interference = int(bool(interference_on))
    return SlotOutcome(
        per_node_detected=detected,
        interference_on=interference,
        union_bit=int(any(detected) or interference),
    )


def _ref_run_draws(cfg, n_active: int, n_slots: int, run_seed: int):
    """One run's randomness in the package's stream order, drawn here.

    Returns the per-slot interference draws, the node positions, the
    shadows, the Doppler correlation over ``cfg.slot_s``, the initial gains
    and the (n_active, n_slots) fading noise.
    """
    from beepid.channel import doppler_correlation
    from beepid.fingerprint import derive_seed

    draws = np.random.default_rng(derive_seed(run_seed, 2)).random(n_slots)
    rng = np.random.default_rng(derive_seed(run_seed, 1))
    positions = rng.uniform(0.0, cfg.area_m, size=(cfg.n_nodes, 2))
    shadows = rng.normal(0.0, cfg.shadow_std_db, size=cfg.n_nodes)
    rho = doppler_correlation(cfg.velocity_kmph, cfg.carrier_hz, cfg.slot_s)
    g0 = ref_standard_complex_normal(rng, n_active)
    noise = ref_standard_complex_normal(rng, (n_active, n_slots))
    return draws, positions, shadows, rho, g0, noise


def _ref_budget_dbm(cfg, positions: np.ndarray, shadows: np.ndarray) -> np.ndarray:
    """Each node's TX power less its log-distance pathloss (clamped below 1 m), plus its shadow."""
    offsets = positions - np.array([cfg.area_m / 2.0, cfg.area_m / 2.0])
    pl = cfg.pathloss_ref_db + 10.0 * cfg.pathloss_exponent * np.log10(
        np.maximum(np.hypot(*offsets.T), 1.0)
    )
    return cfg.tx_power_dbm - pl + shadows


def ref_expected_counts(cfg, patterns, n_periods: int, run_seed: int, rate: float, filter_len: int):
    """One run's expected (TP, FP), given its own layout and shadowing, where that is exact.

    ``patterns`` holds the roster's patterns, the first ``cfg.n_active``
    active. Node i hears a beep with q_i = exp(-10^((s - b_i)/10)), since
    |g|^2 is Exp(1), its link budget b_i redrawn from the run's channel
    stream; on the ideal channel q_i = 1. Id j is accepted in period k when
    each slot of its pattern is observed in one of the w_k = min(k+1, m)
    periods its window ORs (w_k = 1 for m below 2). With slots independent
    (rho = 0 or the ideal channel) that is
    prod_{s in P_j} (1 - ((1-r) prod_{i active, P_i(s)} (1-q_i))^w_k).
    At rho = 1 each node hears all of its beeps of the run or none: the same
    form given the heard set H, over the 2^n_active sets H with weight
    prod_{i in H} q_i prod_{i not in H} (1-q_i).
    """
    n_active = cfg.n_active
    rho, deaf = 0.0, np.zeros(n_active)  # deaf: 1 - q_i
    if not cfg.ideal_channel:
        _, positions, shadows, rho, _, _ = _ref_run_draws(cfg, n_active, 0, run_seed)
        budget = _ref_budget_dbm(cfg, positions[:n_active], shadows[:n_active])
        deaf = 1.0 - np.exp(-(10.0 ** ((cfg.sensitivity_dbm - budget) / 10.0)))
    active = patterns[:n_active]
    if rho == 0.0:
        weights, unheard = np.ones(1), np.where(active, deaf[:, None], 1.0).prod(axis=0)[None]
    elif rho == 1.0:
        heard = (np.arange(2**n_active)[:, None] >> np.arange(n_active)) & 1 == 1
        weights, unheard = np.where(heard, 1.0 - deaf, deaf).prod(axis=1), ~(heard @ active)
    else:
        raise ValueError(f"the expectation is exact at rho 0 and 1, not {rho}")
    windows = np.array([min(k + 1, filter_len) if filter_len >= 2 else 1 for k in range(n_periods)])
    # Shape (sets, 1, periods, slots): a slot unobserved throughout a period's window.
    dark = ((1.0 - rate) * unheard)[:, None, None, :] ** windows[:, None]
    accepted = np.where(patterns[:, None, :], 1.0 - dark, 1.0).prod(axis=-1).sum(axis=-1)
    expected = weights @ accepted
    return expected[:n_active].sum(), expected[n_active:].sum()


def ref_realise_run(cfg, active_patterns: np.ndarray, n_periods: int, run_seed: int):
    """One run's (heard, draws) with the whole run's fading and link budget in one block.

    The seeding and the Doppler correlation come from the package; the
    layout, the noise, the fading and the link budget are drawn and
    evaluated here, in whole-array complex form.
    """
    n_active, t_slots = active_patterns.shape
    draws, positions, shadows, rho, g0, noise = _ref_run_draws(
        cfg, n_active, n_periods * t_slots, run_seed
    )
    gains = ref_rayleigh_sequence(g0, rho, noise)
    with np.errstate(divide="ignore"):
        fade_db = 20.0 * np.log10(np.abs(gains))
    rx_dbm = _ref_budget_dbm(cfg, positions[:n_active], shadows[:n_active])[:, None] + fade_db
    above = rx_dbm >= cfg.sensitivity_dbm
    above |= cfg.ideal_channel  # an ideal channel delivers every beep
    above = above.reshape(n_active, n_periods, t_slots)
    heard = (active_patterns[:, None, :] & above).any(axis=0)
    return heard, draws.reshape(n_periods, t_slots)


def ref_slot_by_slot_run(
    cfg, active_patterns: np.ndarray, n_periods: int, run_seed: int, interference_rate: float
) -> list[list[SlotOutcome]]:
    """One run resolved slot by slot through the scalar radio: per period, per slot outcomes.

    Each node's gain steps through ``advance_rayleigh`` and every slot goes
    through ``detect_slot``.
    """
    n_active, t_slots = active_patterns.shape
    draws, positions, shadows, rho, g0, noise = _ref_run_draws(
        cfg, n_active, n_periods * t_slots, run_seed
    )
    radios = [
        NodeRadio((float(x), float(y)), float(shadow), complex(gain))
        for (x, y), shadow, gain in zip(positions, shadows, g0)
    ]
    receiver = (cfg.area_m / 2.0, cfg.area_m / 2.0)
    periods = []
    for period in range(n_periods):
        outcomes = []
        for t in range(t_slots):
            k = period * t_slots + t
            for radio, w in zip(radios, noise[:, k]):
                radio.rayleigh_gain = advance_rayleigh(radio.rayleigh_gain, rho, complex(w))
            intf = int(draws[k] < interference_rate)
            outcomes.append(detect_slot(active_patterns[:, t], radios, receiver, cfg, intf))
        periods.append(outcomes)
    return periods
