"""Tiny-config run of every workload through the real repetition processes."""

import json
import statistics

import pytest

import checks
import run

TINY = {"runs": 1, "period_ms": [50, 100], "p": [0.2, 0.3], "interference_rate": [0.0, 0.1], "sim_length_s": 1.0}
TINY_LONG = {"runs": 1, "sim_length_s": 20.0}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name):
    return TINY_LONG if name == "long-run" else TINY


def test_benchmark_json_names_what_run_reports():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload(name, trace, tmp_path):
    result, manifest = run.measure(name, 5, 0.01, trace, extra=_tiny(name), out_dir=tmp_path)
    assert manifest["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        assert 0 < metrics["wall_s"] and 0 < metrics["setup_s"] and 0 < metrics["peak_rss_mb"]
        times = manifest["repetition_times_s"]
        speed = [run.calibrate.NOMINAL_S / t["reference_s"] for t in times]
        assert metrics["wall_s"] == pytest.approx(statistics.median(t["wall_s"] * f for t, f in zip(times, speed)))
        assert metrics["setup_s"] == pytest.approx(statistics.median(t["setup_s"] * f for t, f in zip(times, speed)))
        return
    assert metrics["host.reference_s"] > 0
    ideal = name == "ideal-sweep"
    filtered = name == "filter-compare-m6"
    assert (metrics["channel.rayleigh_sequence.calls"] == 0) == ideal
    assert (metrics["channel.standard_complex_normal.calls"] == 0) == ideal
    assert (metrics["identify.filter_push.calls"] > 0) == filtered
    assert (metrics["identify.filter_apply.calls"] > 0) == filtered
    assert metrics["identify.candidates_tested"] == 10 * metrics["identify.identify.calls"]
    layers = manifest["layers"]
    assert sum(layer["self_s"] for key, layer in layers.items() if key != "cli.load_config") == (
        pytest.approx(metrics["trace.wall_s"])
    )


def test_golden_json_covers_the_recorded_seeds_of_every_workload():
    golden = json.loads(checks.GOLDEN_PATH.read_text())["entries"]
    serial = {name for name, w in run.WORKLOADS.items() if w.threads == 1}
    recorded = {(e["workload"], e["seed"]) for e in golden}
    assert recorded == {(name, seed) for name in serial for seed in range(run.GOLDEN_SEEDS)}


def test_every_named_run_is_checked_against_golden_json(tmp_path, monkeypatch):
    result, manifest = run.measure("long-run", 4 * run.GOLDEN_SEEDS + 7, 0.01, False, out_dir=tmp_path)
    assert manifest["master_seed"] == 7 and manifest["golden_checked"]
    assert result["correct"] and manifest["csv_sha256"] == manifest["golden_csv_sha256"]
    monkeypatch.setattr(checks, "load_golden", lambda: {})
    with pytest.raises(LookupError, match="no CSV hash for long-run at master seed 7"):
        run.measure("long-run", 7, 0.01, False, out_dir=tmp_path)


def test_serial_and_threads2_give_the_same_bytes(tmp_path):
    shas = {
        name: run.measure(name, 9, 0.01, False, extra=TINY, out_dir=tmp_path / name)[1]["csv_sha256"]
        for name in ("default-sweep", "default-sweep-threads2")
    }
    assert len(set(shas.values())) == 1


def test_main_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC_DIR", tmp_path / "src")
    assert run.main(["--workload", "long-run", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 1
    assert capsys.readouterr().out == ""
