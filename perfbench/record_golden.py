#!/usr/bin/env python3
"""Record the CSV SHA-256 of every workload for a range of seeds.

Usage, from the repository root, at a commit whose output is known good:

    python3 perfbench/record_golden.py FIRST_SEED LAST_SEED

Each entry is keyed by the SHA-256 of the generated config file, so a
workload that only changes the thread count shares the serial entry. A
changed default config has no entry, and every run then fails its golden
repetition (see run.py) until the hashes are recorded again for seeds
0..GOLDEN_SEEDS-1. Existing entries for other configs are kept.
"""

from __future__ import annotations

import argparse
import json

import checks
import run


def record(name: str, seed: int) -> dict:
    out_dir = run.RESULTS_DIR / "golden" / f"{name}-seed{seed}"
    cfg, config_sha256 = run.prepare(name, seed, out_dir)
    rep = run.run_repetition(run.WORKLOADS[name], cfg, out_dir, 1, False, run.DEADLINE_S, None)
    if rep.problems:
        raise RuntimeError(f"{name} seed {seed}: {rep.problems}")
    return {"workload": name, "seed": seed, "config_sha256": config_sha256, "csv_sha256": rep.csv_sha256}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args()
    serial = [name for name, w in run.WORKLOADS.items() if w.threads == 1]
    tasks = [(name, seed) for seed in range(args.first, args.last + 1) for name in serial]
    entries = [record(name, seed) for name, seed in tasks]
    golden = json.loads(checks.GOLDEN_PATH.read_text())
    new = {entry["config_sha256"] for entry in entries}
    golden["entries"] = [e for e in golden["entries"] if e["config_sha256"] not in new] + entries
    golden["entries"].sort(key=lambda e: (e["workload"], e["seed"]))
    golden["source_sha256"] = run.source_sha256()
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {len(entries)} entries in {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
