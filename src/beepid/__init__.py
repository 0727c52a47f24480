"""Beep-pattern device identification.

Devices mark their presence to a central receiver using nothing but
carrier bursts (beeps) scheduled by a pseudorandom pattern derived from
their id. The receiver senses only the per-slot union of all concurrent
transmissions and accepts every id whose pattern the union covers. The
package bundles the pattern generator, the identification and filtering
logic, the closed-form false-identification analysis, a radio-channel
Monte-Carlo harness, and a CLI.
"""

from .analysis import (
    false_id_prob,
    false_id_prob_given_union,
    optimal_p,
    optimal_T,
    optimal_T_exact,
)
from .channel import doppler_correlation
from .fingerprint import DeviceId, derive_seed, generate_pattern
from .identify import IdSet, filter_apply, filter_push, identify
from .montecarlo import (
    ConfigError,
    FilterComparison,
    MetricsRecord,
    SimConfig,
    compare_filtering,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DeviceId",
    "FilterComparison",
    "IdSet",
    "MetricsRecord",
    "SimConfig",
    "compare_filtering",
    "derive_seed",
    "doppler_correlation",
    "false_id_prob",
    "false_id_prob_given_union",
    "filter_apply",
    "filter_push",
    "generate_pattern",
    "identify",
    "optimal_T",
    "optimal_T_exact",
    "optimal_p",
    "sweep",
]
