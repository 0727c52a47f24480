"""The byte contract on edge configs: the same CSV bytes at one and two threads.

Each override set is an edge that a change to the tiling, the seeding or
the scoring could move: another master seed, a run of many fading tiles, a
roster past the coverage tile's 16 ids, the ideal channel, no and all nodes
active, p at 0 and 1, slots that do not divide the default periods, a
static and a fast channel, a saturated one, and a period of over half a
tile (over a whole one when recorded). Each row holds at one and two
threads, and at one thread with a single usable CPU, where no fading tile
is drawn ahead on a spare one. The hashes were recorded under
earlier tile rules, the last row's before the tiles shared a realisation
workspace; a change that keeps the contract leaves them as they are. On
x86-64 every row also holds at numpy's baseline SIMD target.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beepid.montecarlo as montecarlo
from beepid.cli import EXIT_OK, main
from beepid.fingerprint import generate_pattern

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"

# SHA-256 of the sweep and the compare-filter --filter-len 6 CSVs of
# configs/default.json at runs=2 under each override set.
MATRIX_SHA256 = {
    (): (
        "21f069498826dc2cf7f85a51c18b9d763a36d9a9cf7dfe471aa6066cd0ac5c05",
        "5e55ab3e82d431bab0fa9f11e604e40966add54eda32e45f7233f259ec4c3242",
    ),
    ("master_seed=7",): (
        "22fbf617e82f6409a8aa4af50722e5c4b42fa9879793e0e73dd59d56138ede6f",
        "611a3186025a15584cf78417dcdc80d1c068326b82f292b9a8bf76a898efd389",
    ),
    ("sim_length_s=600", "period_ms=100,1000", "p=0.3"): (
        "440338b94cbc890d440e64bc0ee12017410c43b175f41247e209be2d797ea421",
        "18ab2e1be01207c10597230d742ec241daa7a223252533ad6d9c98aba13f1e60",
    ),
    ("n_nodes=300",): (
        "61cb8e72b570b955a622dca19dc4568eb384d15cd763568c290715de6ff939be",
        "014034b6028b6e6993e69e35437519ca90cc50d74a3f4899b13899d89ead1b7b",
    ),
    ("ideal_channel=true",): (
        "08b60a4e3ee208fe9f3130890e3b371f0e18e9e3a84a446da0123e8ed07ee68a",
        "3fb3e386cb175ef5400f2680701c69b6b4fc8f3a9e33d51256ace446b599e647",
    ),
    ("n_active=0",): (
        "9b1b542282a0b38f5c00b2c7bd5fcb86f1400ef1314ca34fa9b2db2e7ec5919d",
        "1cda9841b0ef492a88476774b7d319ef038cb873ed9eeb8a4adf3cad7686ae60",
    ),
    ("n_active=10",): (
        "335ef5c1bf5862fca602d4fb53f6a6de50bda570f0a49e4abc33e3d11f73876a",
        "099ea8c79604bb19c91518653522a9aeb0591de551e85979514cb76954d97fb8",
    ),
    ("p=0,1",): (
        "95c0273c861d711808473546ade5c9bcfc397b8f9c7258efeeecffcf471f6b3d",
        "8d5e702631e5fa64a6f351e38acc437709fe02ef25e90dc0a92609b3f91de202",
    ),
    ("slot_s=0.005", "period_ms=70,130"): (
        "7a6d7c90d919179e5070c30de9ca8ff1afcf4b9359d20da62eea16a92b047fc6",
        "0144f2f1aa1b7dbee9b6e1e0fb284ed94df4ac98cd2a93e535db3550da15c052",
    ),
    ("velocity_kmph=0",): (
        "c0dc003e7364978a101d9e6fa5227f9048a043916a75fb9baa7b83f631981c87",
        "2178ff4707d19021aaa9387067c087497de36bea5451eef59b79ba00e5e0ec83",
    ),
    ("velocity_kmph=120", "interference_rate=1"): (
        "6c6f428116e9e53bf153a5440cf85634437d2839cfe8966e998cfdb0740c8102",
        "1556d8caae45b0df1555f0096a368ff471b167f3405d1a379b105f1f9d82233f",
    ),
    # A 20000-slot period, one to a tile (past the 16384-slot tile it was
    # recorded with), in one chunk after cells whose tiles are 32 periods of
    # 1000 slots: recorded before the realisation workspace, which the
    # chunk's largest tile sizes.
    ("slot_s=0.0001", "period_ms=100,2000", "sim_length_s=4", "p=0.1,0.5"): (
        "faa3c785910d73c6568588462f128cf64e2aadf95c509f46a303672e0608defb",
        "8c66dad1fe7a4ad2c2a8fa79bdfcdb48c7a5ddec6615f506589a27173b8add29",
    ),
}

COMMANDS = {"sweep": [], "compare-filter": ["--filter-len", "6"]}


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _args(command, overrides) -> list[str]:
    """The command line of one ``MATRIX_SHA256`` row, without its thread count and output."""
    args = [command, *COMMANDS[command], "--config", str(DEFAULT_CONFIG), "--set", "runs=2"]
    for override in overrides:
        args += ["--set", override]
    return args


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("overrides", list(MATRIX_SHA256), ids=lambda o: " ".join(o) or "default")
def test_edge_config_csv_bytes_are_pinned(tmp_path, monkeypatch, overrides, command):
    # A lone worker draws fading tiles ahead where a CPU is spare; at one
    # usable CPU it draws them inline.
    expected = MATRIX_SHA256[overrides][command == "compare-filter"]
    for threads, cpus in (("1", "all"), ("2", "all"), ("1", "1")):
        if cpus == "1":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        out_path = tmp_path / f"{threads}-{cpus}.csv"
        args = [*_args(command, overrides), "--threads", threads, "--out", str(out_path)]
        assert main(args) == EXIT_OK
        assert _sha256(out_path.read_bytes()) == expected, f"--threads {threads}, {cpus} CPUs"


# numpy picks each ufunc's SIMD kernel when it starts, and the kernels for
# log10 and the complex envelope may differ in the last bits; the detection
# threshold compares their result. NPY_DISABLE_CPU_FEATURES acts only on the
# interpreter that reads it, so each row reruns in a fresh one, at one thread.
BASELINE_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
BASELINE_PROBE = """
import hashlib, json, sys
from numpy.lib.introspect import opt_func_info
from beepid.cli import main
out, commands = sys.argv[1], json.loads(sys.argv[2])
hashes = []
for args in commands:
    assert main([*args, "--out", out]) == 0, args
    with open(out, "rb") as csv:
        hashes.append(hashlib.sha256(csv.read()).hexdigest())
log10 = opt_func_info(func_name="log10$", signature="float64")["log10"]["dd"]["current"]
print(json.dumps({"log10": log10, "sha256": hashes}))
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 SIMD targets only"
)
@pytest.mark.parametrize("overrides", list(MATRIX_SHA256), ids=lambda o: " ".join(o) or "default")
def test_pinned_csv_bytes_hold_at_numpys_baseline_simd_target(tmp_path, overrides):
    pytest.importorskip("numpy.lib.introspect")  # numpy 2.0 on
    commands = sorted(COMMANDS)
    argvs = json.dumps([_args(command, overrides) for command in commands])
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", BASELINE_PROBE, str(tmp_path / "out.csv"), argvs],
        env={
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": BASELINE_SIMD,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        },
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["log10"].startswith("baseline("), probe["log10"]
    for command, sha256 in zip(commands, probe["sha256"], strict=True):
        assert sha256 == MATRIX_SHA256[overrides][command == "compare-filter"], command


# SHA-256 of each stage of one small fading cell, in the order the stages
# run, so that a broken contract names the first stage that moved.
STAGE_SHA256 = {
    "patterns": "60a95a2e6bf880e9bb4f5856d65b8aca1ed91aea4f4d4bd9b2c7f61805e29b8e",
    "interference draws": "4374a784bf676da323e5a1e48db4cba7205e43904206dd25d934b8375c10a7ab",
    "heard": "7c7a635a92ec89d430b06e1f1f79229f2beb5de6bfe78833df26ce90588df6f8",
    "counts": "d01cb446c0d92d7cf6fb4793cdd59a39af3e0b35bc37ef655eb98af8dab03e82",
}


def test_each_stage_of_a_fading_cell_is_pinned():
    cfg = montecarlo.SimConfig(
        runs=3, period_ms=(100,), p=(0.3,), interference_rate=(0.0, 0.1), sim_length_s=5.0
    )
    seeds = [montecarlo.run_seed_for(cfg, 0, 0, r) for r in range(cfg.runs)]
    t_slots = cfg.slots_per_period(100)
    patterns = generate_pattern(cfg.roster(), 0.3, t_slots)
    heard, draws = montecarlo.simulate_run_traces(
        cfg, patterns[: cfg.n_active], cfg.periods_per_run(100), seeds
    )
    counts = montecarlo._chunk_counts(cfg, (0, 3), [(0, 0)])[0]
    stages = {"patterns": patterns, "interference draws": draws, "heard": heard, "counts": counts}
    for stage, array in stages.items():
        assert _sha256(np.ascontiguousarray(array).tobytes()) == STAGE_SHA256[stage], stage
