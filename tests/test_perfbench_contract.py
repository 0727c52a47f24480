"""The benchmark's per-layer tracer finds the names it wraps, and the hot path calls them.

``perfbench/child.py`` wraps functions under the names their callers look
them up by, so a rename or a call that bypasses those module globals would
silently zero a per-layer metric instead of failing.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import beepid.cli as cli
import beepid.montecarlo as montecarlo
from beepid.fingerprint import generate_pattern

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
    patterns = generate_pattern(cfg.active_ids(), 0.3, 10)
    montecarlo.simulate_run_traces(cfg, patterns, cfg.periods_per_run(100), 1)
    assert calls["standard_complex_normal"] and calls["rayleigh_sequence"]
    # The tracer sizes the fading bytes from the positional noise block.
    for args, kwargs in calls["rayleigh_sequence"]:
        assert not kwargs and len(args) == 3
        assert isinstance(args[2], np.ndarray) and args[2].nbytes > 0


@pytest.mark.parametrize("filter_lens", [(0,), (1,), (0, 2), (6,)])
def test_point_counts_call_the_traced_layers_through_module_globals(monkeypatch, filter_lens):
    # The tracer's montecarlo spans time the hot path only if _point_counts
    # looks these names up on the module when it runs.
    calls = {"simulate_run_traces": [], "score_traces": [], "filter_apply": []}
    for name, log in calls.items():
        real = getattr(montecarlo, name)

        def counted(*args, _real=real, _log=log, **kwargs):
            _log.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, counted)
    cfg = montecarlo.SimConfig(runs=2, period_ms=(100,), p=(0.3,), interference_rate=(0.0, 0.1))
    seeds = [montecarlo.run_seed_for(cfg, 0, 0, r) for r in range(cfg.runs)]
    montecarlo._point_counts((cfg, 0, 0, seeds, filter_lens))
    assert len(calls["simulate_run_traces"]) == len(calls["score_traces"]) == cfg.runs
    # filter_apply runs for real windows only, so that its span counts
    # calls on filtered workloads alone.
    windows = [m for m in filter_lens if m >= 2]
    assert [args[1] for args in calls["filter_apply"]] == windows * cfg.runs


CLI_HOOKS = ("load_config", "sweep", "compare_filtering", "metrics_csv", "compare_csv")


@pytest.mark.parametrize(
    "command, evaluator, renderer",
    [("sweep", "sweep", "metrics_csv"), ("compare-filter", "compare_filtering", "compare_csv")],
)
def test_cli_looks_up_the_hooked_names_when_it_runs(monkeypatch, tmp_path, command, evaluator, renderer):
    # The benchmark's set-up and wall marks fire from these five names, patched
    # on beepid.cli after import, so the CLI must call them in this order.
    calls = []
    for name in CLI_HOOKS:

        def recorded(*args, _name=name, _real=getattr(cli, name), **kwargs):
            result = _real(*args, **kwargs)
            calls.append((_name, result))
            return result

        monkeypatch.setattr(cli, name, recorded)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"runs": 1, "period_ms": [100], "p": [0.3], "interference_rate": [0.0], "filter_len": 2})
    )
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    assert [name for name, _ in calls] == ["load_config", evaluator, renderer]
    assert isinstance(calls[0][1], montecarlo.SimConfig)
