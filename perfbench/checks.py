"""Correctness checks on one repetition's CSV.

Each check returns a list of problems; an empty list means the output is
correct. The checks hold for any master seed: the row grid and its order,
count conservation, ideal-channel recall, filter dominance, and, where a
recorded hash exists for the exact config, byte identity with it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

SWEEP_HEADER = "T_ms,p,interference_rate,filter_len,runs,events,tp,fn,tn,fp,tp_rate,tn_rate"
COMPARE_HEADER = (
    "T_ms,p,interference_rate,filter_len,runs,"
    "tp_rate_off,tp_rate_on,tn_rate_off,tn_rate_on,tp_gain,tn_loss,net"
)
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    """Recorded CSV hashes keyed by the SHA-256 of the config file bytes."""
    entries = json.loads(path.read_text())["entries"]
    return {entry["config_sha256"]: entry["csv_sha256"] for entry in entries}


def check_golden(csv_bytes: bytes, expected_sha256: str | None) -> list[str]:
    """Compare against a recorded hash; no recorded hash means nothing to compare."""
    if expected_sha256 is None:
        return []
    actual = sha256(csv_bytes)
    if actual != expected_sha256:
        return [f"CSV sha256 {actual[:12]} differs from the recorded {expected_sha256[:12]}"]
    return []


def _grid(cfg: dict) -> list[tuple[int, float, float]]:
    return [(t, p, r) for t in cfg["period_ms"] for p in cfg["p"] for r in cfg["interference_rate"]]


def _rows(text: str, header: str) -> tuple[list[dict], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"CSV header is {lines[0] if lines else '<empty>'!r}, expected {header!r}"]
    return list(csv.DictReader(io.StringIO(text))), []


def _grid_problems(rows: list[dict], cfg: dict) -> list[str]:
    grid = _grid(cfg)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    problems = []
    for i, (row, (t_ms, p, rate)) in enumerate(zip(rows, grid)):
        key = (int(row["T_ms"]), float(row["p"]), float(row["interference_rate"]))
        if key != (t_ms, round(p, 6), round(rate, 6)):
            problems.append(f"row {i} is point {key}, expected {(t_ms, p, rate)}")
        if int(row["filter_len"]) != cfg["filter_len"] or int(row["runs"]) != cfg["runs"]:
            problems.append(f"row {i} has filter_len/runs {row['filter_len']}/{row['runs']}")
    return problems


def check_sweep(text: str, cfg: dict) -> list[str]:
    rows, problems = _rows(text, SWEEP_HEADER)
    if problems:
        return problems
    problems = _grid_problems(rows, cfg)
    n_active, n_silent = cfg["n_active"], cfg["n_nodes"] - cfg["n_active"]
    for i, row in enumerate(rows):
        tp, fn, tn, fp = (int(row[k]) for k in ("tp", "fn", "tn", "fp"))
        events = int(row["events"])
        periods = int(cfg["sim_length_s"] * 1000.0 // int(row["T_ms"]))
        if events != cfg["runs"] * periods:
            problems.append(f"row {i}: events {events}, expected {cfg['runs'] * periods}")
        if tp + fn != events * n_active:
            problems.append(f"row {i}: tp+fn = {tp + fn}, expected {events * n_active}")
        if tn + fp != events * n_silent:
            problems.append(f"row {i}: tn+fp = {tn + fp}, expected {events * n_silent}")
        if n_active and row["tp_rate"] != f"{tp / (tp + fn):.6f}":
            problems.append(f"row {i}: tp_rate {row['tp_rate']} disagrees with tp/fn")
        if n_silent and row["tn_rate"] != f"{tn / (tn + fp):.6f}":
            problems.append(f"row {i}: tn_rate {row['tn_rate']} disagrees with tn/fp")
        if cfg["ideal_channel"] and n_active and fn != 0:
            problems.append(f"row {i}: tp_rate {row['tp_rate']} on an ideal channel")
    return problems


def check_compare(text: str, cfg: dict) -> list[str]:
    rows, problems = _rows(text, COMPARE_HEADER)
    if problems:
        return problems
    problems = _grid_problems(rows, cfg)
    for i, row in enumerate(rows):
        if float(row["tp_rate_on"]) < float(row["tp_rate_off"]):
            problems.append(f"row {i}: filtering lowered tp_rate")
        if float(row["tn_rate_on"]) > float(row["tn_rate_off"]):
            problems.append(f"row {i}: filtering raised tn_rate")
    return problems
