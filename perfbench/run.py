#!/usr/bin/env python3
"""beepid benchmark: time the CLI's Monte-Carlo workloads, check their CSVs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each repetition is one fresh process running the beepid CLI on a config
generated from the workload and the seed (``master_seed`` is the seed modulo
GOLDEN_SEEDS, the seeds golden.json holds hashes for), as a user's
``beepid sweep`` or ``beepid compare-filter`` call would. The
load is a closed-loop batch: one repetition at a time, and the only
parallelism is the CLI's own ``--threads 2`` pool. Repetitions repeat while
half of the next fits in ``--seconds`` (at least two), and the medians are
reported. A fixed reference kernel (calibrate.py) is timed before and after
every repetition, and the end-to-end times are scaled by its nominal over its
measured time, so that the host's drifting speed cancels out.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced serial repetitions and reports per-layer calls, self
times and counts, plus the tracing overhead (traced minus untraced wall).

Every repetition's CSV is checked (see checks.py); a repetition that errors
or fails a check counts in ``failed`` and its timings are not used. Every
repetition's CSV must also match golden.json byte for byte; a config with no
recorded hash is refused before anything runs. The
last line of standard output is the result as one JSON object. A manifest
and the raw outputs go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
from tracer import layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
CHILD = BENCH_DIR / "child.py"
RESULTS_DIR = BENCH_DIR / "results"

MIN_REPS = 2
# golden.json holds the CSV hash of every workload at master seeds
# 0..GOLDEN_SEEDS-1, so that every run is checked byte for byte whatever --seed.
GOLDEN_SEEDS = 33
# A run must exit within 180 s whatever --seconds says.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    command: str
    overrides: dict = field(default_factory=dict)
    threads: int = 1


# Why each workload is here. BENCHMARK.json lists filter-compare-m6 (the full
# sweep machinery on the 180-point grid, fading on, with every trace scored
# twice, once through the sliding OR window) and long-run (360k slots x 5
# nodes per fading call, so array bytes and memory dominate); between them
# they call every layer function the per-layer metrics name. Host noise on a
# 2-vCPU machine needs ~55 s runs for steady medians, and the run budget holds
# two workloads of that length, so three more are run by name only:
# default-sweep (the headline experiment), ideal-sweep, which never calls the
# fading layer (the control for a channel optimisation), and
# default-sweep-threads2, the headline job on the CLI's 2-worker pool. The
# grid workloads run the full 180-point grid with GRID_RUNS Monte-Carlo runs
# per point instead of the default 50: a repetition then takes 1-3 s, a 55 s
# run holds over ten of them, and the host speed reference brackets each one
# closely (see calibrate.py).
GRID_RUNS = 10
WORKLOADS = {
    "default-sweep": Workload("sweep", {"runs": GRID_RUNS}),
    "default-sweep-threads2": Workload("sweep", {"runs": GRID_RUNS}, threads=2),
    "ideal-sweep": Workload("sweep", {"ideal_channel": True, "runs": GRID_RUNS}),
    "filter-compare-m6": Workload("compare-filter", {"filter_len": 6, "runs": GRID_RUNS}),
    "long-run": Workload(
        "sweep",
        {
            "period_ms": [1000],
            "p": [0.2],
            "interference_rate": [0.05],
            "sim_length_s": 3600.0,
            "runs": 8,
        },
    ),
}

# Per-layer metrics: (name, unit). Self times appear only for functions that
# every BENCHMARK.json workload calls, because a time that reads 0.0 on every
# run of a workload is no measurement. Counts repeat exactly by nature and may
# be 0: the filter functions, called only by filter-compare-m6, get calls
# counts, and their 0 elsewhere is checked by the tests.
TIMED_FUNCTIONS = (
    "fingerprint.generate_pattern",
    "fingerprint.derive_seed",
    "channel.standard_complex_normal",
    "channel.rayleigh_sequence",
    "montecarlo.simulate_run_traces",
    "montecarlo.score_traces",
    "identify.identify",
)
COUNTED_FUNCTIONS = (
    "identify.filter_push",
    "identify.filter_apply",
)
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in TIMED_FUNCTIONS + COUNTED_FUNCTIONS},
    **{f"{name}.self_s": "s" for name in TIMED_FUNCTIONS},
    "montecarlo.grid.self_s": "s",
    "channel.fading_bytes": "B_computed",
    "identify.candidates_tested": "count",
    "identify.accepted": "count",
    "identify.accept_ratio": "ratio",
    "cli.load_config.self_s": "s",
    "cli.csv.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    traced: bool
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    duration_s: float = 0.0
    csv_sha256: str = ""
    versions: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    trace_wall_s: float = 0.0
    # Mean reference kernel time before and after the repetition (calibrate.py).
    reference_s: float = 0.0

    @property
    def speed(self) -> float:
        """Factor that scales a time measured now to the host's nominal speed."""
        return calibrate.NOMINAL_S / self.reference_s


def workload_config(workload: Workload, seed: int, extra: dict | None = None) -> dict:
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg.update(workload.overrides)
    cfg.update(extra or {})
    cfg["master_seed"] = seed
    return cfg


def prepare(name: str, seed: int, out_dir: Path, extra: dict | None = None) -> tuple[dict, str]:
    """Empty ``out_dir`` and write the workload's config there; return it and its SHA-256."""
    cfg = workload_config(WORKLOADS[name], seed, extra)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    raw = (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()
    (out_dir / "config.json").write_bytes(raw)
    return cfg, checks.sha256(raw)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the repetition's process group, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_repetition(
    workload: Workload,
    cfg: dict,
    out_dir: Path,
    threads: int,
    traced: bool,
    timeout_s: float,
    expected_sha256: str | None,
) -> Rep:
    """Run one repetition process and check its output."""
    rep = Rep(traced=traced)
    report_path = out_dir / "rep.json"
    spans_path = out_dir / "spans.npz"
    csv_path = out_dir / "out.csv"
    for path in (report_path, spans_path, csv_path):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(report_path)]
    if traced:
        argv += ["--spans", str(spans_path)]
    argv += [
        "--", workload.command, "--config", str(out_dir / "config.json"),
        "--out", str(csv_path), "--threads", str(threads),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    with open(out_dir / "rep.stderr", "wb") as stderr:
        # perf_counter is CLOCK_MONOTONIC on Linux, shared with the child.
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            rep.problems.append(f"timed out after {timeout_s:.0f} s")
        finally:
            _stop_group(proc)
    rep.duration_s = time.perf_counter() - spawned
    if rep.problems:
        return rep
    if proc.returncode != 0 or not report_path.exists():
        tail = (out_dir / "rep.stderr").read_text(errors="replace")[-500:]
        rep.problems.append(f"repetition exited {proc.returncode}: {tail}")
        return rep
    report = json.loads(report_path.read_text())
    if report["exit_code"] != 0:
        tail = (out_dir / "rep.stderr").read_text(errors="replace")[-500:]
        rep.problems.append(f"beepid exited {report['exit_code']}: {tail}")
        return rep
    if not Path(report["beepid_file"]).resolve().is_relative_to(SRC_DIR):
        rep.problems.append(f"beepid imported from {report['beepid_file']}, not {SRC_DIR}")
        return rep
    marks = report["marks"]
    rep.setup_s = marks["config_ready"] - spawned
    rep.wall_s = marks["end"] - marks["start"]
    rep.peak_rss_mb = report["peak_rss_kb"] / 1024.0
    rep.versions = report["versions"]
    csv_bytes = csv_path.read_bytes()
    rep.csv_sha256 = checks.sha256(csv_bytes)
    check = checks.check_compare if workload.command == "compare-filter" else checks.check_sweep
    rep.problems += check(csv_bytes.decode(), cfg)
    rep.problems += checks.check_golden(csv_bytes, expected_sha256)
    if traced:
        import numpy as np

        with np.load(spans_path) as spans:
            arrays = {key: spans[key] for key in spans.files}
        rep.layers = layer_totals(**arrays)
        is_root = arrays["name_id"] == list(arrays["names"]).index("wall")
        rep.trace_wall_s = float((arrays["end"][is_root] - arrays["start"][is_root]).sum()) / 1e9
        rep.counts = report["counts"]
    return rep


def _self_s(layers: dict, *names: str) -> float:
    return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)


def per_layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer metric values from one traced repetition (trace.overhead_s excluded)."""
    layers, counts = rep.layers, rep.counts
    values = {}
    for name in TIMED_FUNCTIONS + COUNTED_FUNCTIONS:
        values[f"{name}.calls"] = layers.get(name, {}).get("calls", 0)
    for name in TIMED_FUNCTIONS:
        values[f"{name}.self_s"] = _self_s(layers, name)
    values["montecarlo.grid.self_s"] = _self_s(
        layers, "montecarlo.sweep", "montecarlo.compare_filtering"
    )
    tested = counts.get("identify.candidates_tested", 0)
    accepted = counts.get("identify.accepted", 0)
    values["channel.fading_bytes"] = counts.get("channel.fading_bytes", 0)
    values["identify.candidates_tested"] = tested
    values["identify.accepted"] = accepted
    values["identify.accept_ratio"] = accepted / tested if tested else 0.0
    values["cli.load_config.self_s"] = _self_s(layers, "cli.load_config")
    values["cli.csv.self_s"] = _self_s(layers, "cli.metrics_csv", "cli.compare_csv")
    values["cli.csv_bytes"] = counts.get("cli.csv_bytes", 0)
    values["trace.wall_s"] = rep.trace_wall_s
    values["trace.unattributed_s"] = layers["wall"]["self_s"]
    return values


def source_sha256() -> str:
    """One hash over every file of the package source, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "beepid").rglob("*.py")):
        digest.update(path.relative_to(SRC_DIR).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout's own git repository, or None when it has none."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    extra: dict | None = None,
    out_dir: Path | None = None,
) -> tuple[dict | None, dict]:
    """Run one workload for ``seconds``; return (result or None, manifest).

    Raises LookupError when golden.json has no hash for a named workload's
    config. A config changed by ``extra`` (the tests' tiny ones) has none
    and is checked against the invariants alone.
    """
    workload = WORKLOADS[name]
    out_dir = out_dir or RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    master_seed = seed if extra else seed % GOLDEN_SEEDS
    cfg, config_sha256 = prepare(name, master_seed, out_dir, extra)
    expected = checks.load_golden().get(config_sha256)
    if expected is None and not extra:
        raise LookupError(
            f"golden.json has no CSV hash for {name} at master seed {master_seed} "
            f"(config {config_sha256[:12]}); record them with record_golden.py"
        )

    threads = 1 if trace else workload.threads
    started = time.perf_counter()
    reps: list[Rep] = []
    reference_before = calibrate.reference_s()
    while True:
        elapsed = time.perf_counter() - started
        durations = [r.duration_s for r in reps]
        # Start another repetition while at least half of it fits in the time
        # left, so a run overshoots ``seconds`` by half a repetition at most.
        if len(reps) >= MIN_REPS and elapsed + statistics.fmean(durations) / 2 > seconds:
            break
        if reps and elapsed + max(durations) > DEADLINE_S:
            break
        traced = trace and len(reps) % 2 == 1
        rep = run_repetition(
            workload, cfg, out_dir, threads, traced, DEADLINE_S - elapsed, expected
        )
        reference_after = calibrate.reference_s()
        rep.reference_s = (reference_before + reference_after) / 2
        reference_before = reference_after
        reps.append(rep)

    # Every repetition of one config must give the same bytes and the same counts,
    # whatever the thread count and whether it was traced.
    reference = next((r for r in reps if not r.problems), None)
    traced_reference = next((r for r in reps if r.traced and not r.problems), None)
    for rep in reps:
        if rep.problems:
            continue
        if rep.csv_sha256 != reference.csv_sha256:
            rep.problems.append("CSV bytes differ from an earlier repetition")
        if rep.traced and rep.counts != traced_reference.counts:
            rep.problems.append("trace counts differ from an earlier traced repetition")

    valid = [r for r in reps if not r.problems]
    failed = len(reps) - len(valid)
    untraced = [r for r in valid if not r.traced]
    traced_reps = [r for r in valid if r.traced]
    versions = reference.versions if reference else {}
    manifest = {
        "workload": name,
        "seed": seed,
        "master_seed": master_seed,
        "seconds": seconds,
        "trace": int(trace),
        "threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": source_sha256(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "config_sha256": config_sha256,
        "golden_csv_sha256": expected,
        "csv_sha256": reference.csv_sha256 if reference else None,
        "golden_checked": expected is not None,
        "repetitions": len(reps),
        "failed": failed,
        "fail_ratio": failed / len(reps),
        "problems": [p for r in reps for p in r.problems],
        "repetition_times_s": [
            {
                "traced": r.traced,
                "valid": not r.problems,
                "wall_s": r.wall_s,
                "setup_s": r.setup_s,
                "reference_s": r.reference_s,
            }
            for r in reps
        ],
        "reference_nominal_s": calibrate.NOMINAL_S,
        "tracing_overhead_s": None,
    }

    result = None
    if trace and untraced and traced_reps:
        samples = [per_layer_metrics(r) for r in traced_reps]
        metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            r.wall_s for r in untraced
        )
        metrics["host.reference_s"] = statistics.median(r.reference_s for r in reps)
        manifest["tracing_overhead_s"] = metrics["trace.overhead_s"]
        manifest["layers"] = traced_reps[-1].layers
        result = _result(len(reps), failed, metrics, PER_LAYER_UNITS)
    elif not trace and untraced:
        metrics = {
            "wall_s": statistics.median(r.wall_s * r.speed for r in untraced),
            "setup_s": statistics.median(r.setup_s * r.speed for r in untraced),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
        }
        result = _result(len(reps), failed, metrics, END_TO_END_UNITS)
    manifest["result"] = result
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return result, manifest


def _result(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def report(manifest: dict, stream=sys.stderr) -> None:
    """Human-readable summary: every metric by name with its unit."""
    result = manifest["result"]
    golden = "checked against golden.json" if manifest["golden_checked"] else "no recorded hash"
    print(
        f"{manifest['workload']}  seed {manifest['seed']}  "
        f"master_seed {manifest['master_seed']}  trace {manifest['trace']}  "
        f"threads {manifest['threads']}  repetitions {manifest['repetitions']}  "
        f"failed {manifest['failed']}  fail_ratio {manifest['fail_ratio']:.3f}  "
        f"CSV {str(manifest['csv_sha256'])[:12]} ({golden})",
        file=stream,
    )
    for problem in manifest["problems"]:
        print(f"  FAILED: {problem}", file=stream)
    if result is not None:
        for key, metric in result["metrics"].items():
            print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}", file=stream)
    if "layers" in manifest:
        print("  spans of the last traced repetition (calls, self s):", file=stream)
        for key, layer in sorted(manifest["layers"].items()):
            print(f"    {key:38s} {layer['calls']:>10d} {layer['self_s']:>12.6f}", file=stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in (SRC_DIR / "beepid" / "cli.py", DEFAULT_CONFIG) if not p.is_file()]
    if missing:
        print(f"error: not a beepid checkout, missing {missing}", file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        try:
            result, manifest = measure(name, args.seed, args.seconds, bool(args.trace))
        except LookupError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        report(manifest)
        if result is None:
            print(f"error: {name}: no repetition passed its checks", file=sys.stderr)
            return 1
        lines.append({"workload": name, **result} if args.workload == "all" else result)
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so a running repetition's group is still killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    raise SystemExit(main())
