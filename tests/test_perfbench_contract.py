"""The benchmark's per-layer tracer finds the names it wraps, and the hot path calls them.

``perfbench/child.py`` wraps functions under the names their callers look
them up by, so a rename or a call that bypasses those module globals would
silently zero a per-layer metric instead of failing.
"""

import importlib.util
from pathlib import Path

import numpy as np

import beepid.cli as cli
import beepid.montecarlo as montecarlo
from beepid.identify import pattern_matrix

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

MONTECARLO_NAMES = {
    "identify",
    "filter_push",
    "filter_apply",
    "rayleigh_sequence",
    "standard_complex_normal",
    "derive_seed",
    "simulate_run_traces",
    "score_traces",
}


class _NameRecorder:
    """Tracer stand-in: records each wrapped name and returns the function unwrapped."""

    def __init__(self):
        self.wrapped = {}

    def wrap(self, name, fn, count=None):
        self.wrapped[name.rpartition(".")[2]] = fn
        return fn


def test_every_traced_name_exists_on_montecarlo():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    recorder = _NameRecorder()
    # Each name is fetched with getattr, so a missing one raises here.
    child.install_tracer(recorder, cli)
    assert MONTECARLO_NAMES <= set(recorder.wrapped)
    for name in MONTECARLO_NAMES:
        assert getattr(montecarlo, name) is recorder.wrapped[name]


def test_realisation_calls_the_fading_functions_through_module_globals(monkeypatch):
    calls = {"rayleigh_sequence": [], "standard_complex_normal": []}
    for name, log in calls.items():
        real = getattr(montecarlo, name)

        def counted(*args, _real=real, _log=log, **kwargs):
            _log.append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, counted)
    cfg = montecarlo.SimConfig(runs=1, period_ms=(100,), p=(0.3,), interference_rate=(0.0,))
    patterns = pattern_matrix(cfg.active_ids(), 0.3, 10)
    montecarlo._realise_run(cfg, patterns, cfg.periods_per_run(100), 1)
    assert calls["standard_complex_normal"] and calls["rayleigh_sequence"]
    # The tracer sizes the fading bytes from the positional noise block.
    for args, kwargs in calls["rayleigh_sequence"]:
        assert not kwargs and len(args) == 3
        assert isinstance(args[2], np.ndarray) and args[2].nbytes > 0
