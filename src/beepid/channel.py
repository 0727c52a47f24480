"""Radio propagation model: the package's one link budget.

Detection of a beep is a pure link-budget threshold: transmit power minus
log-distance pathloss to the receiver at the centre of the deployment
square, plus a static per-node log-normal shadowing term, plus the
instantaneous Rayleigh fast-fading gain ``20 log10|g|``, compared against
the receiver sensitivity (``link_budget_dbm``, ``rx_power_dbm``,
``detect``). Every function takes arrays, one row per node, so the
Monte-Carlo harness only draws the randomness, filters the fading in time
blocks and combines the flags. Fading evolves slot to slot as a
first-order autoregressive complex Gaussian whose correlation follows the
Clarke/Jakes zeroth-order Bessel law of the node's Doppler frequency, so
fades span multiple consecutive slots at pedestrian speeds. External
interference is a strong foreign signal that saturates carrier sensing for
the slots it occupies; the harness ORs it into the union trace. The radio
constants (transmit power, sensitivity, shadowing spread, carrier,
pathloss law, deployment side, node speed) are ``SimConfig`` fields, and
the functions here read them from the config they are given.

The fading path needs two compiled scipy kernels, the AR(1) filter behind
``scipy.signal.lfilter`` and the ``j0`` ufunc. ``_load_kernel`` loads each
extension module straight from the installed scipy, without running
``scipy/signal/__init__.py`` (which imports ``scipy.stats``) or
``scipy/special/__init__.py``: the CLI then starts in about 0.2 s instead
of about 1.05 s, with the same bits. Two routes to that start-up were
measured and are dead ends. Importing ``lfilter`` and ``j0`` on first use
only moves the cost from set-up into the first fading sweep. A numpy
recursion ``y[n] = x[n] + rho*y[n-1]`` is bit-identical to the filter, but
at the long-run shape (10 lanes x 360k slots) it is 17x slower (0.64 s
against 0.037 s).
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # montecarlo imports this module
    from .montecarlo import SimConfig


def _load_kernel(module: str, name: str, fallback: str):
    """Attribute ``name`` of the compiled scipy extension ``module``, loaded on its own.

    The extension file is found next to the installed scipy and executed
    without its package's ``__init__``; a module the process has already
    imported is used as it is. Should the file or the attribute be missing
    (a scipy release that moved it), ``name`` is taken from the ordinarily
    imported ``fallback`` module: the same kernel at the old start-up cost.
    """
    try:
        extension = sys.modules.get(module)
        if extension is None:
            root = importlib.util.find_spec("scipy").submodule_search_locations[0]
            directory = os.path.join(root, *module.split(".")[1:-1])
            finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
            spec = finder.find_spec(module)
            extension = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(extension)
            # A single-phase extension enters sys.modules as it is created. Taken
            # out again, a later import of its package binds it as usual.
            sys.modules.pop(module, None)
        return getattr(extension, name)
    except (AttributeError, ImportError, OSError):
        return getattr(importlib.import_module(fallback), name)


# lfilter forwards to _linear_filter(b, a, x, axis, zi) whenever len(a) > 1.
_linear_filter = _load_kernel(
    "scipy.signal._sigtools", "_linear_filter", "scipy.signal._sigtools"
)
j0 = _load_kernel("scipy.special._special_ufuncs", "j0", "scipy.special")

SPEED_OF_LIGHT = 2.99792458e8
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def pathloss_db(distance_m, cfg: SimConfig):
    """Log-distance pathloss in dB of a distance or an array of them.

    Distances below 1 m are clamped to 1 m to avoid the singularity.
    """
    distance_m = np.asarray(distance_m, dtype=np.float64)
    if (distance_m < 0.0).any():
        raise ValueError("distance must be >= 0")
    return cfg.pathloss_ref_db + 10.0 * cfg.pathloss_exponent * np.log10(
        np.maximum(distance_m, 1.0)
    )


def link_budget_dbm(positions: np.ndarray, shadows_db: np.ndarray, cfg: SimConfig):
    """Per-node received power before fading: TX - pathloss + shadowing, in dBm.

    ``positions`` has shape (nodes, 2) and ``shadows_db`` shape (nodes,);
    the receiver sits at the centre of the deployment square.
    """
    offsets = np.asarray(positions) - cfg.area_m / 2.0
    return cfg.tx_power_dbm - pathloss_db(np.hypot(*offsets.T), cfg) + shadows_db


def doppler_correlation(velocity_kmph: float, carrier_hz: float, slot_s: float) -> float:
    """Slot-to-slot fading correlation J0(2 pi f_d dt), clamped to [0, 1].

    f_d is the maximum Doppler shift of a node moving at the given speed
    relative to the carrier wavelength. Zero velocity gives a static
    channel (correlation 1). An argument that overflows to infinity gives
    J0's limit there, 0: j0 itself would return NaN.
    """
    if velocity_kmph < 0.0:
        raise ValueError("velocity must be >= 0")
    doppler_hz = (velocity_kmph / 3.6) * carrier_hz / SPEED_OF_LIGHT
    argument = 2.0 * math.pi * doppler_hz * slot_s
    if not math.isfinite(argument):
        return 0.0
    rho = float(j0(argument))
    return min(max(rho, 0.0), 1.0)


def rayleigh_sequence(g0: np.ndarray, rho: float, noise: np.ndarray) -> np.ndarray:
    """Vectorized AR(1) fading: gains for all nodes over all slots.

    ``g0`` has shape (nodes,), ``noise`` shape (nodes, slots) with unit mean
    power (variance 1/2 per real component), which keeps E[|g|^2] = 1.
    Column k of the result equals k+1 scalar steps
    ``g = rho * g + sqrt(1 - rho^2) * w``, bit for bit.

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
    gains, _ = _linear_filter(np.array([1.0]), np.array([1.0, -rho]), scaled, 1, zi)
    return gains.view(np.complex128)[..., 0]


def _pairs(values: np.ndarray) -> np.ndarray:
    """The float64 (real, imag) pairs of a complex128 array, as a view with a trailing axis of 2."""
    return values[..., None].view(np.float64)


def rx_power_dbm(gains: np.ndarray, budget_dbm) -> np.ndarray:
    """Instantaneous received power budget + 20 log10|g| in dBm; -inf where g is 0.

    ``budget_dbm`` broadcasts against ``gains``: a (nodes, 1) column of
    link budgets for a (nodes, slots) block of fading gains. The envelope
    is ``np.abs`` of the gains, not ``np.hypot`` of their parts, which
    differs from it in the last ulp and could flip a threshold.
    """
    rx_dbm = np.abs(gains)
    with np.errstate(divide="ignore"):
        np.log10(rx_dbm, out=rx_dbm)
    rx_dbm *= 20.0
    rx_dbm += budget_dbm
    return rx_dbm


def detect(gains: np.ndarray, budget_dbm, cfg: SimConfig, out=None) -> np.ndarray:
    """Carrier sense per (node, slot): received power >= the sensitivity.

    Writes the flags into the bool array ``out`` when given, and returns them.
    """
    return np.greater_equal(rx_power_dbm(gains, budget_dbm), cfg.sensitivity_dbm, out=out)


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
