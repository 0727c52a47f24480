"""Independent reference implementations the tests check the package against.

Everything here is deliberately written against different machinery than
the package (numpy uint64 wraparound instead of Python int masking, a
direct Taylor series instead of scipy, whole-array complex arithmetic
instead of blocked float pairs) so the two sides of each check
cannot share a bug.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def ref_splitmix64(seed: int, count: int) -> list[int]:
    """SplitMix64 output words via numpy uint64 arithmetic."""
    state = np.uint64(seed & ((1 << 64) - 1))
    out = []
    with np.errstate(over="ignore"):
        for _ in range(count):
            state = state + _GAMMA
            z = state
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z = z ^ (z >> np.uint64(31))
            out.append(int(z))
    return out


def ref_pattern_slots(device_id: int, p: float, period_slots: int) -> list[int]:
    """Per-slot beep flags derived straight from the reference generator."""
    threshold = (1 << 64) if p >= 1.0 else int(p * 2.0**64)
    words = ref_splitmix64(device_id, period_slots)
    return [1 if w < threshold else 0 for w in words]


def ref_pattern_bits(device_id: int, p: float, period_slots: int) -> int:
    bits = 0
    for t, flag in enumerate(ref_pattern_slots(device_id, p, period_slots)):
        if flag:
            bits |= 1 << t
    return bits


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


FIRST_J0_ZERO = 2.404825557695773


def ref_standard_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-power complex Gaussians built from complex temporaries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def ref_rayleigh_sequence(g0: np.ndarray, rho: float, noise: np.ndarray) -> np.ndarray:
    """AR(1) fading as one complex lfilter over the scaled noise."""
    scaled = math.sqrt(1.0 - rho * rho) * noise
    gains, _ = lfilter([1.0], [1.0, -rho], scaled, axis=1, zi=(rho * np.asarray(g0))[:, None])
    return gains


def ref_realise_run(cfg, active_patterns: np.ndarray, n_periods: int, run_seed: int):
    """One run's (heard, draws) with the whole run's fading and link budget in one block.

    The seeding, layout and Doppler correlation come from the package; the
    noise, the fading and the link budget are the complex whole-array forms.
    """
    from beepid.channel import doppler_correlation
    from beepid.fingerprint import derive_seed
    from beepid.montecarlo import _draw_layout

    n_active, t_slots = active_patterns.shape
    draws = np.random.default_rng(derive_seed(run_seed, 2)).random((n_periods, t_slots))
    ch = cfg.channel
    rng = np.random.default_rng(derive_seed(run_seed, 1))
    layout = _draw_layout(cfg, rng)
    shadows = rng.normal(0.0, ch.shadow_std_db, size=cfg.n_nodes)
    rho = doppler_correlation(ch.velocity_kmph, ch.carrier_hz, ch.slot_s)
    g0 = ref_standard_complex_normal(rng, n_active)
    gains = ref_rayleigh_sequence(
        g0, rho, ref_standard_complex_normal(rng, (n_active, n_periods * t_slots))
    )
    offsets = np.asarray(layout.positions[:n_active]) - np.asarray(layout.receiver)
    pl = ch.pathloss_ref_db + 10.0 * ch.pathloss_exponent * np.log10(
        np.maximum(np.hypot(*offsets.T), 1.0)
    )
    with np.errstate(divide="ignore"):
        fade_db = 20.0 * np.log10(np.abs(gains))
    rx_dbm = (ch.tx_power_dbm - pl + shadows[:n_active])[:, None] + fade_db
    above = (rx_dbm >= ch.sensitivity_dbm).reshape(n_active, n_periods, t_slots)
    return (active_patterns[:, None, :] & above).any(axis=0), draws
