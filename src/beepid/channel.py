"""Radio propagation and interference model.

Detection of a beep is a pure link-budget threshold: transmit power minus
log-distance pathloss, plus a static per-node log-normal shadowing term,
plus the instantaneous Rayleigh fast-fading gain, compared against the
receiver sensitivity. Fading evolves slot to slot as a first-order
autoregressive complex Gaussian whose correlation follows the Clarke/Jakes
zeroth-order Bessel law of the node's Doppler frequency, so fades span
multiple consecutive slots at pedestrian speeds. External interference is
a strong foreign signal that saturates carrier sensing for the slots it
occupies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.special import j0

SPEED_OF_LIGHT = 2.99792458e8
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ChannelConfig:
    """Radio-model constants.

    Defaults model a 100 m x 100 m deployment of 10 uW (-20 dBm) nodes
    heard by a -104 dBm receiver at 2.4 GHz. The log-distance exponent of
    3.0 with a 40.05 dB reference loss at 1 m (free space, 2.4 GHz)
    describes a cluttered environment in which far nodes sit near or below
    the sensitivity floor, so fast fades routinely erase beeps.
    """

    tx_power_dbm: float = -20.0
    sensitivity_dbm: float = -104.0
    shadow_std_db: float = 8.0
    carrier_hz: float = 2.4e9
    pathloss_exponent: float = 3.0
    pathloss_ref_db: float = 40.05
    area_m: float = 100.0
    slot_s: float = 0.010
    interference_rate: float = 0.0
    velocity_kmph: float = 3.0

    def __post_init__(self) -> None:
        if self.sensitivity_dbm >= self.tx_power_dbm:
            raise ValueError("receiver sensitivity must sit below the TX power")
        if self.slot_s <= 0.0:
            raise ValueError("slot duration must be positive")
        if not 0.0 <= self.interference_rate <= 1.0:
            raise ValueError("interference rate must be in [0, 1]")
        if self.area_m <= 0.0:
            raise ValueError("deployment area side must be positive")
        if self.velocity_kmph < 0.0:
            raise ValueError("velocity must be >= 0")


@dataclass
class NodeRadio:
    """Per-node radio state: fixed position and shadowing, evolving fast fading."""

    position: tuple[float, float]
    shadow_db: float
    rayleigh_gain: complex
    velocity_kmph: float = 3.0


@dataclass(frozen=True)
class SlotOutcome:
    """What the receiver's carrier sense resolved for one slot."""

    per_node_detected: tuple[int, ...]
    interference_on: int
    union_bit: int


def pathloss_db(distance_m: float, cfg: ChannelConfig) -> float:
    """Log-distance pathloss in dB, clamped below 1 m to avoid the singularity."""
    if distance_m < 0.0:
        raise ValueError("distance must be >= 0")
    return cfg.pathloss_ref_db + 10.0 * cfg.pathloss_exponent * math.log10(
        max(distance_m, 1.0)
    )


def doppler_correlation(velocity_kmph: float, carrier_hz: float, slot_s: float) -> float:
    """Slot-to-slot fading correlation J0(2 pi f_d dt), clamped to [0, 1].

    f_d is the maximum Doppler shift of a node moving at the given speed
    relative to the carrier wavelength. Zero velocity gives a static
    channel (correlation 1).
    """
    if velocity_kmph < 0.0:
        raise ValueError("velocity must be >= 0")
    doppler_hz = (velocity_kmph / 3.6) * carrier_hz / SPEED_OF_LIGHT
    rho = float(j0(2.0 * math.pi * doppler_hz * slot_s))
    return min(max(rho, 0.0), 1.0)


def advance_rayleigh(gain: complex, rho: float, noise: complex) -> complex:
    """One AR(1) fading step: rho * gain + sqrt(1 - rho^2) * noise.

    ``noise`` must be complex Gaussian with unit mean power (variance 1/2
    per real component); the recursion then keeps E[|gain|^2] = 1.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    return rho * gain + math.sqrt(1.0 - rho * rho) * noise


def rayleigh_sequence(g0: np.ndarray, rho: float, noise: np.ndarray) -> np.ndarray:
    """Vectorized AR(1) fading: gains for all nodes over all slots.

    ``g0`` has shape (nodes,), ``noise`` shape (nodes, slots); the result
    column k equals applying advance_rayleigh k+1 times, bit for bit.

    The recursion has real coefficients, so it runs as a real filter over
    the (real, imag) float pairs of the noise, which is cheaper than a
    complex filter and performs the same real multiplies and adds on each
    part. A long sequence may be filtered in blocks: passing the previous
    block's last gains as ``g0`` continues it bit for bit.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    noise = np.asarray(noise, dtype=np.complex128)
    scaled = math.sqrt(1.0 - rho * rho) * _pairs(noise)
    zi = _pairs(rho * np.asarray(g0, dtype=np.complex128))[:, None, :]
    gains, _ = lfilter([1.0], [1.0, -rho], scaled, axis=1, zi=zi)
    return gains.view(np.complex128)[..., 0]


def _pairs(values: np.ndarray) -> np.ndarray:
    """The float64 (real, imag) pairs of a complex128 array, as a view with a trailing axis of 2."""
    return values[..., None].view(np.float64)


def received_power_dbm(
    radio: NodeRadio, rx_position: tuple[float, float], cfg: ChannelConfig
) -> float:
    """Instantaneous received power: TX - pathloss + shadowing + fading gain."""
    distance = math.dist(radio.position, rx_position)
    magnitude = abs(radio.rayleigh_gain)
    fade_db = 20.0 * math.log10(magnitude) if magnitude > 0.0 else -math.inf
    return cfg.tx_power_dbm - pathloss_db(distance, cfg) + radio.shadow_db + fade_db


def detect_slot(
    active_beeps,
    radios,
    rx_position: tuple[float, float],
    cfg: ChannelConfig,
    interference_on: int,
) -> SlotOutcome:
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


def standard_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussians with unit mean power (variance 1/2 per component).

    All real parts are drawn before all imaginary parts. Each part is
    scaled straight into the complex result, so no complex temporaries are
    built; the values equal ``(a + 1j*b) / sqrt(2)``, which numpy evaluates
    as a multiply of each part by 1/sqrt(2).
    """
    out = np.empty(shape, dtype=np.complex128)
    draw = rng.standard_normal(out.shape)
    np.multiply(draw, _INV_SQRT2, out=out.real)
    rng.standard_normal(out=draw)
    np.multiply(draw, _INV_SQRT2, out=out.imag)
    return out
