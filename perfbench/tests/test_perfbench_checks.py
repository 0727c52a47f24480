import json

import checks
import run

TINY = {"runs": 1, "period_ms": [50, 100], "p": [0.2], "interference_rate": [0.0, 0.1], "sim_length_s": 1.0}


def _sweep_csv(cfg, rows):
    lines = [checks.SWEEP_HEADER]
    for t_ms, rate, tp, fn, tn, fp in rows:
        events = (tp + fn) // cfg["n_active"]
        lines.append(
            f"{t_ms},0.200000,{rate:.6f},0,1,{events},{tp},{fn},{tn},{fp},"
            f"{tp / (tp + fn):.6f},{tn / (tn + fp):.6f}"
        )
    return "\n".join(lines) + "\n"


def _config(**extra):
    return run.workload_config(run.WORKLOADS["default-sweep"], 7, {**TINY, **extra})


def test_a_consistent_sweep_passes():
    cfg = _config()
    text = _sweep_csv(cfg, [(50, 0.0, 90, 10, 80, 20), (50, 0.1, 95, 5, 70, 30),
                            (100, 0.0, 45, 5, 40, 10), (100, 0.1, 48, 2, 30, 20)])
    assert checks.check_sweep(text, cfg) == []


def test_broken_counts_and_grid_are_reported():
    cfg = _config()
    rows = [(50, 0.0, 90, 10, 80, 20), (50, 0.1, 95, 5, 70, 31),
            (100, 0.0, 45, 5, 40, 10), (100, 0.2, 48, 2, 30, 20)]
    problems = checks.check_sweep(_sweep_csv(cfg, rows), cfg)
    assert any("tn+fp" in p for p in problems)
    assert any("row 3 is point" in p for p in problems)
    assert checks.check_sweep("T_ms,p\n", cfg)[0].startswith("CSV header")


def test_ideal_channel_rows_must_have_full_recall():
    cfg = _config(ideal_channel=True)
    text = _sweep_csv(cfg, [(50, 0.0, 100, 0, 80, 20), (50, 0.1, 99, 1, 70, 30),
                            (100, 0.0, 50, 0, 40, 10), (100, 0.1, 50, 0, 30, 20)])
    assert checks.check_sweep(text, cfg) == ["row 1: tp_rate 0.990000 on an ideal channel"]


def test_filtering_must_dominate():
    cfg = run.workload_config(run.WORKLOADS["filter-compare-m6"], 7, {**TINY, "period_ms": [50]})
    good = "50,0.200000,0.000000,6,1,0.900000,0.950000,0.800000,0.700000,0.050000,0.100000,-0.050000"
    bad = "50,0.200000,0.100000,6,1,0.900000,0.850000,0.800000,0.810000,-0.050000,-0.010000,-0.040000"
    problems = checks.check_compare("\n".join([checks.COMPARE_HEADER, good, bad]) + "\n", cfg)
    assert problems == ["row 1: filtering lowered tp_rate", "row 1: filtering raised tn_rate"]


def test_golden_comparison_fails_when_one_csv_byte_changes():
    data = b"T_ms,p\n50,0.200000\n"
    recorded = checks.sha256(data)
    assert checks.check_golden(data, recorded) == []
    assert checks.check_golden(data, None) == []
    for i in range(len(data)):
        changed = bytearray(data)
        changed[i] ^= 1
        assert len(checks.check_golden(bytes(changed), recorded)) == 1


def test_recorded_hashes_are_well_formed():
    golden = json.loads(checks.GOLDEN_PATH.read_text())
    assert golden["entries"]
    for entry in golden["entries"]:
        assert entry["workload"] in run.WORKLOADS
        assert len(entry["config_sha256"]) == len(entry["csv_sha256"]) == 64
    assert len(checks.load_golden()) == len(golden["entries"])
