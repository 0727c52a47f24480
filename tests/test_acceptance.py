"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The statistical criteria run against frozen seeds, so
the whole gate is deterministic.
"""

import math
import time

import numpy as np
from scipy import stats

from beepid.analysis import false_id_prob, optimal_p
from beepid.channel import (
    doppler_correlation,
    rayleigh_sequence,
    standard_complex_normal,
)
from beepid.cli import main, metrics_csv
from beepid.montecarlo import (
    SimConfig,
    compare_filtering,
    run_seed_for,
    simulate_run_traces,
    sweep,
)
from oracles import bessel_j0_series, ref_coverage_prob, ref_pattern_slots, ref_score_traces


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {status}{suffix}")
    assert ok, f"acceptance criterion {number} ({label}) failed{suffix}"


def test_acceptance_1_formula_vs_monte_carlo():
    # n random patterns + 1 fresh candidate on a lossless union channel;
    # the subset-test frequency must match the closed form within 3 SE.
    trials = 10**5
    chunk = 20_000
    rng = np.random.default_rng(0xBEE9)
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for n in (1, 3, 5, 10):
        for p in (0.1, 0.25, 0.5):
            for t in (5, 20, 50):
                hits = 0
                for lo in range(0, trials, chunk):
                    size = min(chunk, trials - lo)
                    union = (rng.random((size, n, t)) < p).any(axis=1)
                    candidate = rng.random((size, t)) < p
                    hits += int((~(candidate & ~union).any(axis=1)).sum())
                expected = false_id_prob(n, p, t)
                se = math.sqrt(expected * (1.0 - expected) / trials)
                deviation = abs(hits / trials - expected)
                worst = max(worst, deviation - 3.0 * se)
                if deviation > 3.0 * se:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(
        1,
        "formula-vs-oracle",
        ok and elapsed < 120.0,
        f"worst excess over 3se {worst:+.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_binomial_mixture_identity():
    worst = 0.0
    for n in range(1, 11):
        for p_step in range(0, 21):
            p = p_step * 0.05
            for t in range(1, 31):
                total = sum(
                    ref_coverage_prob(n, p, k)
                    * math.comb(t, k)
                    * p**k
                    * (1.0 - p) ** (t - k)
                    for k in range(t + 1)
                )
                worst = max(worst, abs(total - false_id_prob(n, p, t)))
    _report(2, "binomial-mixture identity", worst <= 1e-12, f"worst gap {worst:.2e}")


def test_acceptance_3_optimal_p_grid_search():
    grid = np.arange(0.001, 1.0, 0.001)
    worst = 0.0
    ok = True
    for n in range(1, 51):
        for t in (1, 20):
            values = (1.0 - grid * (1.0 - grid) ** n) ** t
            best = float(grid[np.argmin(values)])
            gap = abs(best - optimal_p(n))
            worst = max(worst, gap)
            if gap > 0.001 + 1e-12:
                ok = False
    _report(3, "optimal p grid search", ok, f"worst |argmin - 1/(n+1)| {worst:.4f}")


def _curve_inversions(values, direction: str) -> int:
    inversions = 0
    for a, b in zip(values, values[1:]):
        if direction == "non-decreasing" and b < a:
            inversions += 1
        if direction == "non-increasing" and b > a:
            inversions += 1
    return inversions


def test_acceptance_4_ideal_conditions():
    # Perfect TP at runs=10 over the full grid with interference pinned off.
    cfg10 = SimConfig(runs=10, ideal_channel=True, interference_rate=(0.0,), master_seed=4)
    tp_ok = all(r.tp_rate == 1.0 for r in sweep(cfg10))

    # TN trends at runs=50: rising in T, falling in p, one inversion slack.
    cfg50 = SimConfig(runs=50, ideal_channel=True, interference_rate=(0.0,), master_seed=4)
    records = sweep(cfg50)
    by_point = {(r.t_ms, r.p): r.tn_rate for r in records}
    trend_ok = True
    worst_inv = 0
    for p in cfg50.p:
        curve = [by_point[(t_ms, p)] for t_ms in cfg50.period_ms]
        inv = _curve_inversions(curve, "non-decreasing")
        worst_inv = max(worst_inv, inv)
        trend_ok &= inv <= 1
    for t_ms in cfg50.period_ms:
        curve = [by_point[(t_ms, p)] for p in cfg50.p]
        inv = _curve_inversions(curve, "non-increasing")
        worst_inv = max(worst_inv, inv)
        trend_ok &= inv <= 1
    _report(
        4,
        "ideal-conditions reproduction",
        tp_ok and trend_ok,
        f"tp==1.0: {tp_ok}, max inversions per curve {worst_inv}",
    )


def test_acceptance_5_interference_direction():
    cfg = SimConfig(runs=50, master_seed=5)
    active_ids = cfg.roster()[: cfg.n_active]
    violations = 0
    tn_t100 = {0.0: 0, 0.2: 0}
    events_t100 = 0
    for ti, t_ms in enumerate(cfg.period_ms):
        t_slots = cfg.slots_per_period(t_ms)
        for pi, p in enumerate(cfg.p):
            active = np.array([ref_pattern_slots(i, p, t_slots) for i in active_ids], bool)
            for run_index in range(cfg.runs):
                seed = run_seed_for(cfg, ti, pi, run_index)
                (heard,), (draws,) = simulate_run_traces(cfg, active, cfg.periods_per_run(t_ms), [seed])
                quiet, noisy = heard | (draws < 0.0), heard | (draws < 0.2)
                cq = ref_score_traces(quiet, cfg.roster(), active_ids, p, 0)
                cn = ref_score_traces(noisy, cfg.roster(), active_ids, p, 0)
                if cn[0] < cq[0] or cn[2] > cq[2]:
                    violations += 1
                if t_ms == 100:
                    tn_t100[0.0] += cq[2]
                    tn_t100[0.2] += cn[2]
                    events_t100 += len(quiet) * (cfg.n_nodes - cfg.n_active)
    drop = (tn_t100[0.0] - tn_t100[0.2]) / events_t100
    ok = violations == 0 and drop > 0.0
    _report(
        5,
        "interference direction",
        ok,
        f"paired violations {violations}, TN drop at T=100ms {drop:+.4f}",
    )


def test_acceptance_6_filtering_effect():
    cfg = SimConfig(runs=50, interference_rate=(0.2,), filter_len=6, master_seed=6)
    records = compare_filtering(cfg)
    gain_ok = all(r.tp_gain >= 0.0 for r in records)
    high_t = [r for r in records if r.on.t_ms in (500, 1000) and r.on.p >= 0.3]
    low_t = [r for r in records if r.on.t_ms == 50 and r.on.p >= 0.3]
    net_hi_ok = all(r.net > 0.0 for r in high_t)
    net_lo_ok = all(r.net < 0.0 for r in low_t)
    detail = (
        f"min gain {min(r.tp_gain for r in records):+.4f}, "
        f"net@T>=500,p>=0.3 in [{min(r.net for r in high_t):+.3f}, "
        f"{max(r.net for r in high_t):+.3f}], "
        f"net@T=50,p>=0.3 max {max(r.net for r in low_t):+.3f}"
    )
    _report(6, "filtering effect", gain_ok and net_hi_ok and net_lo_ok, detail)


def test_acceptance_7_determinism(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        '{"runs": 5, "period_ms": [50, 100], "p": [0.1, 0.3],'
        ' "interference_rate": [0.0, 0.2], "master_seed": 7}'
    )
    outputs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "8"), ("c.csv", "1")):
        out = tmp_path / name
        code = main(
            ["sweep", "--config", str(config), "--threads", threads, "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(7, "determinism", ok, f"{len(outputs[0])} bytes, threads 1 vs 8 vs rerun")


def test_acceptance_8_rayleigh_statistics():
    rho = 0.95
    rng = np.random.default_rng(7777)
    g0 = standard_complex_normal(rng, 1)
    noise = standard_complex_normal(rng, (1, 10**6))
    gains = rayleigh_sequence(g0, rho, noise)[0]
    mean_power = float(np.mean(np.abs(gains) ** 2))
    power_ok = abs(mean_power - 1.0) <= 0.01

    # The chain is strongly autocorrelated; thin to every 64th slot
    # (correlation 0.95^64 ~ 0.04) so the i.i.d. KS critical region applies.
    envelope = np.abs(gains[::64])
    ks = stats.kstest(envelope, "rayleigh", args=(0.0, math.sqrt(0.5)))
    ks_ok = ks.pvalue > 0.01

    measured = doppler_correlation(3.0, 2.4e9, 0.010)
    f_d = (3.0 / 3.6) * 2.4e9 / 2.99792458e8
    expected = bessel_j0_series(2.0 * math.pi * f_d * 0.010)
    bessel_ok = abs(measured - expected) <= 1e-6

    _report(
        8,
        "Rayleigh statistics",
        power_ok and ks_ok and bessel_ok,
        f"mean power {mean_power:.4f}, KS p {ks.pvalue:.3f}, "
        f"doppler gap {abs(measured - expected):.1e}",
    )


def test_acceptance_9_desk_scale_sweep(tmp_path):
    cfg = SimConfig(runs=50, master_seed=9)
    start = time.perf_counter()
    records = sweep(cfg, threads=2)
    elapsed = time.perf_counter() - start
    csv_text = metrics_csv(records)
    out = tmp_path / "full_sweep.csv"
    out.write_text(csv_text, newline="")
    rows = csv_text.count("\n") - 1
    ok = rows == 180 and elapsed < 600.0
    _report(9, "desk-scale full sweep", ok, f"{rows} rows in {elapsed:.1f}s")
