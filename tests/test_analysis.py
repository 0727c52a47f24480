"""Closed forms against Monte-Carlo, grid-search, and summation oracles."""

import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from beepid.analysis import (
    false_id_prob,
    false_id_prob_given_union,
    optimal_T,
    optimal_T_exact,
    optimal_p,
)
from beepid.fingerprint import generate_pattern
from beepid.identify import filter_apply, uncovered
from beepid.montecarlo import SimConfig, run_seed_for, simulate_run_traces, sweep


def test_false_id_trivial_cases():
    assert false_id_prob(5, 0.0, 100) == 1.0
    assert false_id_prob(5, 1.0, 100) == 1.0


def _silent_id_trials(trials: int):
    """Per trial, n stations' union on a lossless channel and one fresh silent id."""
    n, p, t = 3, 0.25, 10
    rng = np.random.default_rng(7_2025)
    ids = rng.integers(0, 2**64, size=(trials, n + 1), dtype=np.uint64)
    patterns = generate_pattern(ids, p, t)
    return ids, patterns[:, :n].any(axis=1), patterns[:, n], (n, p, t)


def test_false_id_against_pattern_level_simulation():
    # Full protocol oracle: n stations with independent random ids transmit
    # on a lossless union channel; a fresh silent id is falsely identified
    # where the union covers every one of its beeps.
    trials = 10**5
    _, union, silent, (n, p, t) = _silent_id_trials(trials)
    hits = int((~(silent & ~union).any(axis=-1)).sum())
    expected = false_id_prob(n, p, t)
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(hits / trials - expected) <= 3 * se


def test_false_id_monotone_in_period_length():
    for n in (1, 4, 10):
        for p in (0.05, 0.3, 0.7):
            values = [false_id_prob(n, p, t) for t in range(1, 40)]
            assert all(a >= b for a, b in zip(values, values[1:]))


def test_false_id_large_period_stays_accurate():
    # exp/log1p path: no underflow to zero for a tiny per-slot kill rate.
    # Independent route: ln(1-x) by series, safe because x is tiny.
    value = false_id_prob(40, 1e-6, 10**6)
    assert 0.0 < value < 1.0
    x, slots = 1e-6 * (1 - 1e-6) ** 40, 10**6
    assert value == pytest.approx(math.exp(-slots * (x + x**2 / 2 + x**3 / 3)), rel=1e-9)


def test_false_id_given_union_values():
    assert false_id_prob_given_union(10, 5, 0.2) == pytest.approx(0.8**5, rel=1e-14)
    # Interference rescues a beep on an uncovered slot in any of w periods.
    assert false_id_prob_given_union(10, 5, 0.2, 0.2, 3) == pytest.approx(
        (1 - 0.2 * 0.8**3) ** 5, rel=1e-14
    )
    assert false_id_prob_given_union(10, 10, 0.9) == 1.0
    assert false_id_prob_given_union(10, 3, 0.0) == 1.0
    assert false_id_prob_given_union(10, 3, 0.5, 1.0) == 1.0
    assert false_id_prob_given_union(10, 3, 1.0) == 0.0
    # A longer window and a higher rate can only help a silent candidate.
    values = [false_id_prob_given_union(20, 4, 0.3, 0.1, w) for w in (1, 2, 5)]
    assert values == sorted(values)
    # Tiny p, huge T: log1p keeps the product accurate where 1 - x rounds.
    assert false_id_prob_given_union(10**12, 0, 1e-12) == pytest.approx(math.exp(-1), rel=1e-9)


def test_false_id_given_union_matches_the_ideal_channel_sweep():
    # On an ideal channel without interference every run and period sees the
    # same union, so one period of one run scores each silent id once, and the
    # false-identification events of one id are all the same event: the
    # standard error is over silent ids.
    n_active, n_silent, p, t_slots = 5, 100_000, 0.2, 10
    cfg = SimConfig(
        runs=1,
        sim_length_s=0.1,
        period_ms=(100,),
        p=(p,),
        interference_rate=(0.0,),
        n_nodes=n_active + n_silent,
        n_active=n_active,
        ideal_channel=True,
    )
    (record,) = sweep(cfg)
    assert record.events == 1
    covered = int(generate_pattern(cfg.roster()[: cfg.n_active], p, t_slots).any(axis=0).sum())
    expected = false_id_prob_given_union(t_slots, covered, p)
    se = math.sqrt(expected * (1 - expected) / n_silent)
    assert abs(record.fp / n_silent - expected) <= 3 * se
    # The ensemble formula averages over the union and does not describe this roster.
    assert abs(record.fp / n_silent - false_id_prob(n_active, p, t_slots)) > 3 * se


@pytest.mark.parametrize(
    "ideal_channel, rate, filter_len",
    [(True, 0.2, 0), (True, 0.05, 3), (False, 0.05, 3)],
    ids=["ideal-r0.2", "ideal-m3", "fading-3kmh-m3"],
)
def test_false_id_given_union_predicts_the_sweep(ideal_channel, rate, filter_len):
    # Period k observes the OR of the last w_k = min(k, m) traces, whose
    # channel part covers U_k slots; a silent id, independent of that union,
    # survives with probability false_id_prob_given_union(T, U_k, p, r, w_k).
    # Averaged over runs and periods, that predicts the sweep's FP rate. The
    # silent ids of a period share its interference draws, and a window
    # shares them with its neighbours, so the standard error is clustered by
    # run: runs are the independent draws, ids and periods are not.
    n_active, n_silent, p = 5, 20_000, 0.2
    cfg = SimConfig(
        runs=40,
        sim_length_s=1.0,
        period_ms=(100,),
        p=(p,),
        interference_rate=(rate,),
        n_nodes=n_active + n_silent,
        n_active=n_active,
        filter_len=filter_len,
        ideal_channel=ideal_channel,
        velocity_kmph=3.0,
    )
    (record,) = sweep(cfg)
    t_slots, n_periods = cfg.slots_per_period(100), cfg.periods_per_run(100)
    patterns = generate_pattern(cfg.roster(), p, t_slots)
    windows = np.minimum(np.arange(1, n_periods + 1), max(filter_len, 1))
    false_hits, predicted, naive = [], [], []
    for run in range(cfg.runs):
        seed = run_seed_for(cfg, 0, 0, run)
        (heard,), (draws,) = simulate_run_traces(cfg, patterns[:n_active], n_periods, [seed])
        observed = filter_apply(heard | (draws < rate), filter_len)
        false_hits.append((~uncovered(observed, patterns[n_active:])).sum(axis=1))
        union = filter_apply(heard, filter_len).sum(axis=1)
        for u, w in zip(union.tolist(), windows.tolist()):
            predicted.append(false_id_prob_given_union(t_slots, u, p, rate, w))
            naive.append(false_id_prob_given_union(t_slots, u, p))
    false_hits = np.array(false_hits)
    assert false_hits.sum() == record.fp
    per_run = false_hits.mean(axis=1) / n_silent
    residual = per_run - np.reshape(predicted, (cfg.runs, -1)).mean(axis=1)
    se = residual.std(ddof=1) / math.sqrt(cfg.runs)
    assert abs(residual.mean()) <= 4 * se
    # The rate and the window both count: the same unions without them miss.
    assert abs(per_run.mean() - np.mean(naive)) > 4 * se


def test_optimal_p_direct_values():
    assert optimal_p(1) == 0.5
    assert optimal_p(9) == pytest.approx(0.1)


def test_optimal_T_degenerate_and_equation():
    assert optimal_T(1) == 0.0
    v = optimal_T(10)
    base = 1.0 - 1.0 / (math.e * 11)
    assert base**v == pytest.approx(1.0 / 10, abs=1e-9)


def test_optimal_T_rounded_up_meets_target():
    for n in range(2, 30):
        v = optimal_T(n)
        base = 1.0 - 1.0 / (math.e * (n + 1))
        assert base ** math.ceil(v) <= 1.0 / n + 1e-12


def test_optimal_T_exact_close_to_approximation():
    # The e-approximation of the base overshoots T by about 1/(2n): ~5%
    # at n=10, shrinking to ~1% at n=50.
    assert optimal_T_exact(1) == 0.0
    for n, bound in [(10, 0.05), (25, 0.02), (50, 0.0101)]:
        approx, exact = optimal_T(n), optimal_T_exact(n)
        rel = abs(exact - approx) / exact
        assert rel < bound
        assert rel > 1.0 / (2 * n) * 0.8


def test_optimal_T_exact_brackets_the_target():
    for n in (2, 5, 10, 25, 40):
        v = optimal_T_exact(n)
        assert v != int(v)
        p_opt = optimal_p(n)
        assert false_id_prob(n, p_opt, math.ceil(v)) <= 1.0 / n < false_id_prob(
            n, p_opt, math.floor(v)
        )


def _exact_T(n: int) -> Decimal:
    """optimal_T_exact's period at the default target 1/n, in 50-digit decimals."""
    p = 1 / Decimal(n + 1)
    base = p * (1 - p) ** n
    return (1 / Decimal(n)).ln() / (1 - base).ln()


def test_exact_period_and_false_id_match_decimal_arithmetic():
    # (1 - p)^n as exp(n log1p(-p)): a float 1 - p drops the low digits of a
    # small p, which the power then raises by n (off by a factor e at 10^20).
    with localcontext() as ctx:
        ctx.prec = 50
        for n in (10, 10**6, 10**9, 10**12, 10**20):
            exact = _exact_T(n)
            assert abs(Decimal(optimal_T_exact(n)) / exact - 1) <= Decimal("1e-14"), n
            # T about 1/x puts the false-identification probability near 1/e.
            p = optimal_p(n)
            x = Decimal(p) * (1 - Decimal(p)) ** n
            T = int(1 / x)
            expected = (1 - x) ** T
            assert abs(Decimal(false_id_prob(n, p, T)) / expected - 1) <= Decimal("1e-14"), n


def test_optimal_T_custom_target():
    n = 8
    v = optimal_T_exact(n, target=0.01)
    p_opt = optimal_p(n)
    assert false_id_prob(n, p_opt, math.ceil(v)) <= 0.01


HUGE_COUNT = 10**400

# Every input a closed form refuses, each with the message that names it.
REFUSALS = [
    (false_id_prob, (1, 0.5, 0), "period length T must be >= 1, got 0"),
    (false_id_prob, (0, 0.5, 1), "station count n must be >= 1, got 0"),
    (false_id_prob, (HUGE_COUNT, 0.5, 1), "station count n is beyond the float range"),
    (false_id_prob, (10, 0.1, HUGE_COUNT), "period length T is beyond the float range"),
    (false_id_prob_given_union, (0, 0, 0.5), "period length T must be >= 1, got 0"),
    (false_id_prob_given_union, (10, -1, 0.5), "covered slot count must be in [0, T], got -1"),
    (false_id_prob_given_union, (10, 11, 0.5), "covered slot count must be in [0, T], got 11"),
    (false_id_prob_given_union, (10, 2, 1.5), "probability must be in [0, 1], got 1.5"),
    (false_id_prob_given_union, (10, 2, 0.5, -0.1), "probability must be in [0, 1], got -0.1"),
    (false_id_prob_given_union, (10, 2, 0.5, 0.1, 0), "window w must be >= 1, got 0"),
    (false_id_prob_given_union, (HUGE_COUNT, 0, 0.5), "period length T is beyond the float range"),
    (optimal_p, (0,), "station count n must be >= 1, got 0"),
    (optimal_p, (HUGE_COUNT,), "station count n is beyond the float range"),
    (optimal_T, (0,), "station count n must be >= 1, got 0"),
    (optimal_T, (5, 0.0), "target probability must be in (0, 1], got 0.0"),
    (optimal_T, (HUGE_COUNT,), "station count n is beyond the float range"),
    (optimal_T_exact, (5, 2.0), "target probability must be in (0, 1], got 2.0"),
    (optimal_T_exact, (HUGE_COUNT, 0.5), "station count n is beyond the float range"),
]


@pytest.mark.parametrize(
    "form, args, message",
    REFUSALS,
    ids=[
        f"{form.__name__}({','.join(map(str, args))})".replace(str(HUGE_COUNT), "10**400")
        for form, args, _ in REFUSALS
    ],
)
def test_closed_form_refuses_input_outside_its_domain(form, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        form(*args)


def test_period_at_the_float_maximum_is_endless_not_an_error():
    # 1/(e(n+1)) underflows to 0 here, which divided ln(target) by zero.
    n = int(sys.float_info.max)
    assert optimal_T(n) == math.inf
    assert optimal_T(n, 0.5) == math.inf
    assert optimal_T_exact(n) == math.inf
