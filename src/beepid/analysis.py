"""Closed-form behaviour of the identification protocol.

With n stations beeping independently at per-slot probability p, a silent
candidate is falsely accepted exactly when each of its own would-be beeps
lands on a slot some real station covered. The per-slot kill probability
is p*(1-p)^n, giving a false-identification probability of

    (1 - p*(1-p)^n)^T

over a period of T slots. Minimizing over p yields p_opt = 1/(n+1); the
period length needed to push the false-identification probability below a
target then follows by solving the power equation for T.

That formula averages over the active stations' union. A fixed roster
re-emits fixed patterns, so every period sees the same union, covering U
of the T slots; conditioned on it, a silent candidate survives with
probability (1 - p(1-r)^w)^(T-U), where r is the per-slot interference
rate and w the number of periods the receiver ORs together.
"""

from __future__ import annotations

import math
import sys


def _check_count(label: str, value: int) -> None:
    """Refuse a count below 1 or beyond the float range, which the formulas cannot convert."""
    if value < 1:
        raise ValueError(f"{label} must be >= 1, got {value}")
    if value > sys.float_info.max:
        raise ValueError(f"{label} is beyond the float range ({len(str(value))} digits)")


def _check_n(n: int) -> None:
    _check_count("station count n", n)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def _miss_all(n: int, p: float) -> float:
    """(1-p)^n, the chance that none of n beepers covers a slot, as exp(n * log1p(-p)).

    A float 1 - p loses the low digits of a small p, which the power then
    raises by n: at n = 10^20 and p = 1/(n+1), (1.0 - p)**n is 1 where e^-1 is right.
    """
    return math.exp(n * math.log1p(-p)) if p < 1.0 else 0.0


def _survives(x: float, slots: int) -> float:
    """(1 - x)^slots as exp(slots * log1p(-x)), accurate for a small x and many slots."""
    if x == 1.0:
        return 0.0 if slots else 1.0
    return math.exp(slots * math.log1p(-x))


def false_id_prob(n: int, p: float, T: int) -> float:
    """Probability that a silent station is falsely identified: (1 - p(1-p)^n)^T.

    Evaluated as exp(T * log1p(-x)) with x = p(1-p)^n, which stays accurate
    when x is small and T is large.
    """
    _check_n(n)
    _check_p(p)
    _check_count("period length T", T)
    return _survives(p * _miss_all(n, p), T)


def false_id_prob_given_union(
    T: int, covered: int, p: float, r: float = 0.0, window: int = 1
) -> float:
    """False-identification probability given the union: (1 - p(1-r)^w)^(T-U).

    ``covered`` is U, the slots of the period the active stations' union
    covers. Each of the other T - U slots kills a silent candidate that
    beeps in it, unless interference at per-slot rate ``r`` covers it in
    one of the ``window`` = w periods the receiver ORs together (w = 1
    unfiltered). Evaluated through log1p/exp, as false_id_prob is.
    """
    _check_count("period length T", T)
    if not 0 <= covered <= T:
        raise ValueError(f"covered slot count must be in [0, T], got {covered}")
    _check_p(p)
    _check_p(r)
    _check_count("window w", window)
    return _survives(p * _miss_all(window, r), T - covered)


def optimal_p(n: int) -> float:
    """Beep probability minimizing the false-identification probability: 1/(n+1)."""
    _check_n(n)
    return 1.0 / (n + 1)


def _period_for(n: int, target: float | None, base) -> float:
    """T solving (1 - base(n))^T = target; the default target is 1/n, and a target of 1 needs 0."""
    _check_n(n)
    if target is None:
        target = 1.0 / n
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target probability must be in (0, 1], got {target}")
    if target == 1.0:
        return 0.0
    # A base that underflows to 0 (n near the float maximum) needs an endless period.
    log_base = math.log1p(-base(n))
    return math.log(target) / log_base if log_base else math.inf


def optimal_T(n: int, target: float | None = None) -> float:
    """Period length driving the false-identification probability to ``target``.

    Uses the e-approximation of the optimal base, (1 - 1/(e(n+1)))^T = target,
    so T = ln(target) / ln(1 - 1/(e(n+1))). The default target is 1/n. The
    result is real-valued; round up for a usable slot count. n = 1 with the
    default target degenerates to 0 (the target is already 1).
    """
    return _period_for(n, target, lambda n: 1.0 / (math.e * (n + 1)))


def optimal_T_exact(n: int, target: float | None = None) -> float:
    """As optimal_T, but with the exact base 1 - p_opt (1-p_opt)^n, p_opt = 1/(n+1)."""
    return _period_for(n, target, lambda n: (p := optimal_p(n)) * _miss_all(n, p))
