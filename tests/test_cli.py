"""CLI: subcommands, overrides, CSV schema, exit codes, determinism."""

import dataclasses
import errno
import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import beepid.cli as cli
from beepid.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from beepid.montecarlo import ConfigError, SimConfig

BASE_CONFIG = {
    "runs": 2,
    "period_ms": [100],
    "p": [0.3],
    "interference_rate": [0.0],
    "ideal_channel": True,
    "master_seed": 42,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_analyze_reports_optimal_p(capsys):
    assert main(["analyze", "--n", "9"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "optimal_p(n=9) = 0.1" in out
    assert "false_id target = 0.111111" in out


def test_analyze_degenerate_false_id(capsys):
    assert main(["analyze", "--n", "10", "--p", "0", "--T", "100"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "false_id_prob(n=10, p=0.0, T=100) = 1" in out


def test_analyze_matches_independent_root_solve(capsys):
    assert main(["analyze", "--n", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    reported = float(
        next(line for line in out.splitlines() if line.startswith("optimal_T(")).split(
            "= "
        )[1]
    )
    base = 1.0 - 1.0 / (math.e * 11)
    root = brentq(lambda t: base**t - 0.1, 1.0, 1e4, xtol=1e-12)
    assert reported == pytest.approx(root, abs=1e-9)


def test_analyze_exact_period_at_a_huge_station_count(capsys):
    # (1 - p)^n with p = 1/(n + 1) is about 1/e here; a float 1 - p rounds
    # to 1 and made the period e times too short (4.6e21).
    assert main(["analyze", "--n", "100000000000000000000"]) == EXIT_OK
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("optimal_T_exact("))
    assert float(line.split("= ")[-1]) == pytest.approx(1.2518e22, rel=1e-4)


def test_analyze_rejects_bad_domain(capsys):
    # The closed forms check n and the target; the CLI reports their refusal.
    for args, named in (
        (["--n", "0"], "station count n"),
        (["--n", "-3", "--target", "0.5"], "station count n"),
        (["--n", "5", "--target", "0"], "target"),
        (["--n", "5", "--target", "1.5"], "target"),
    ):
        assert main(["analyze", *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err
    assert main(["analyze", "--n", "5", "--p", "2.0", "--T", "10"]) == EXIT_CONFIG
    assert main(["analyze", "--n", "5", "--p", "0.5"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "args, flag",
    [(["--n", "1" + "0" * 400], "n"), (["--n", "10", "--p", "0.1", "--T", "1" + "0" * 400], "T")],
)
def test_analyze_refuses_counts_beyond_the_float_range(capsys, args, flag):
    # Such a count used to reach a float conversion and exit 2 with
    # "int too large to convert to float".
    assert main(["analyze", *args]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f" {flag} is beyond the float range" in captured.err


def test_simulate_ideal_point(config_path, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    assert main(["simulate", "--config", config_path, "--out", str(out_path)]) == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == (
        "T_ms,p,interference_rate,filter_len,runs,events,tp,fn,tn,fp,tp_rate,tn_rate"
    )
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "100"
    assert fields[1] == "0.300000"
    assert fields[10] == "1.000000"


def test_simulate_rejects_grid_config(config_path, tmp_path):
    assert (
        main(
            [
                "simulate",
                "--config",
                config_path,
                "--set",
                "p=0.1,0.2",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        == EXIT_CONFIG
    )


def test_sweep_emits_one_row_per_point(config_path, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config",
            config_path,
            "--set",
            "period_ms=50,100",
            "--set",
            "p=0.1,0.3",
            "--set",
            "interference_rate=0,0.2",
            "--out",
            str(out_path),
        ]
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1 + 8


def test_seeded_runs_are_byte_identical(config_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--seed",
                "7",
                "--set",
                "ideal_channel=false",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_is_invisible_in_output(config_path, tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    args = ["sweep", "--config", config_path, "--set", "period_ms=50,100", "--set", "ideal_channel=false"]
    assert main(args + ["--threads", "1", "--out", str(a)]) == EXIT_OK
    assert main(args + ["--threads", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"

# SHA-256 of the CSVs of the default fading config at runs=2; any change to
# the seeding, the channel, the scoring or the formatting changes them.
PINNED_CSV_SHA256 = {
    ("sweep", 1): "21f069498826dc2cf7f85a51c18b9d763a36d9a9cf7dfe471aa6066cd0ac5c05",
    ("sweep", 7): "22fbf617e82f6409a8aa4af50722e5c4b42fa9879793e0e73dd59d56138ede6f",
    ("compare-filter", 1): "5e55ab3e82d431bab0fa9f11e604e40966add54eda32e45f7233f259ec4c3242",
    ("compare-filter", 7): "611a3186025a15584cf78417dcdc80d1c068326b82f292b9a8bf76a898efd389",
}


def test_default_config_file_spells_out_the_defaults():
    raw = json.loads(DEFAULT_CONFIG.read_text())
    assert SimConfig.from_dict(raw) == SimConfig()
    assert list(SimConfig().to_dict()) == list(raw)


@pytest.mark.parametrize("command, seed", sorted(PINNED_CSV_SHA256))
def test_csv_bytes_are_pinned(tmp_path, command, seed):
    extra = ["--filter-len", "6"] if command == "compare-filter" else []
    for threads in ("1", "2"):
        out_path = tmp_path / f"{command}-{threads}.csv"
        args = [command, *extra, "--config", str(DEFAULT_CONFIG), "--set", "runs=2"]
        args += ["--seed", str(seed), "--threads", threads, "--out", str(out_path)]
        assert main(args) == EXIT_OK
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == PINNED_CSV_SHA256[command, seed], threads


def test_compare_filter_csv(config_path, tmp_path):
    out_path = tmp_path / "cmp.csv"
    code = main(
        [
            "compare-filter",
            "--config",
            config_path,
            "--filter-len",
            "3",
            "--set",
            "interference_rate=0.2",
            "--set",
            "ideal_channel=false",
            "--out",
            str(out_path),
        ]
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("T_ms,p,interference_rate,filter_len,runs,tp_rate_off")
    fields = lines[1].split(",")
    assert fields[3] == "3"
    # net = tp_gain - tn_loss, all at 6 decimals
    tp_gain, tn_loss, net = float(fields[9]), float(fields[10]), float(fields[11])
    assert net == pytest.approx(tp_gain - tn_loss, abs=2e-6)


def test_missing_config_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_override_key(config_path, capsys):
    code = main(["sweep", "--config", config_path, "--set", "warp_speed=9"])
    assert code == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_override_value(config_path, capsys):
    code = main(["sweep", "--config", config_path, "--set", "p=high"])
    assert code == EXIT_CONFIG


def test_period_beyond_the_float_range_is_a_config_error(config_path, capsys):
    period = "1" + "0" * 400
    assert main(["simulate", "--config", config_path, "--set", f"period_ms={period}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "period_ms" in err


def test_slot_count_no_array_can_hold_is_a_config_error(config_path, capsys):
    # 1e-300 s slots would put 1e299 slots in a period, which no array can
    # hold: refused before the sweep instead of failing its allocation.
    assert main(["simulate", "--config", config_path, "--set", "slot_s=1e-300"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "slot_s" in err


@pytest.mark.parametrize("failing", ["out.csv", "out.gp", "effective.json"])
def test_runtime_error_exit_code(config_path, tmp_path, monkeypatch, capsys, failing):
    # A failure that no check of the config or options can foresee, on
    # whichever output it strikes: each is written through _write_output.
    write_output = cli._write_output

    def disk_full(text, out_path):
        if Path(out_path).name == failing:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_output(text, out_path)

    monkeypatch.setattr(cli, "_write_output", disk_full)
    args = ["sweep", "--config", config_path, "--out", str(tmp_path / "out.csv"), "--emit-gnuplot"]
    code = main(args + ["--dump-config", str(tmp_path / "effective.json")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("runtime error:")


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--config", str(DEFAULT_CONFIG), "--threads", "x"],
        ["simulate"],
        ["analyze", "--n", "x"],
        ["compare-filter", "--config", str(DEFAULT_CONFIG), "--filter-len", "1.5"],
        ["bogus"],
    ],
    ids=["threads=x", "no-config", "n=x", "filter-len=1.5", "unknown-command"],
)
def test_usage_error_is_a_config_error(monkeypatch, capsys, args):
    # argparse's own exit 2 would read as a runtime error; no run may start.
    monkeypatch.setattr(cli, "load_config", _refuse_sweep)
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: beepid")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["sweep", "--help"])
    assert done.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: beepid sweep")


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"runs": 2, "note": "caf\xe9"}'.encode("latin-1"))
    for path in (tmp_path, latin1):
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare-filter"])
@pytest.mark.parametrize("option", ["--out", "--dump-config"])
def test_output_path_is_checked_before_the_sweep(
    config_path, tmp_path, monkeypatch, capsys, command, option
):
    # A missing directory or a directory in place of the file is refused
    # before any work, so no CSV is left behind by a failed --dump-config.
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    monkeypatch.setattr(cli, "compare_filtering", _refuse_sweep)
    for bad in (tmp_path / "no" / "such" / "dir" / "x.csv", tmp_path):
        outputs = {"--out": str(tmp_path / "out.csv"), option: str(bad)}
        args = [command, "--config", config_path]
        args += [text for pair in outputs.items() for text in pair]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and option in err and str(bad) in err
    assert sorted(tmp_path.iterdir()) == [Path(config_path)]


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare-filter"])
def test_two_outputs_on_one_file_are_refused_before_the_sweep(
    config_path, tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    monkeypatch.setattr(cli, "compare_filtering", _refuse_sweep)
    # Spelt differently, the same file is still the same output.
    args = [command, "--config", config_path, "--out", str(tmp_path / "out.csv")]
    assert main(args + ["--dump-config", str(tmp_path / "." / "out.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--dump-config" in err and "--out" in err
    assert sorted(tmp_path.iterdir()) == [Path(config_path)]


def test_dumped_config_never_overwrites_the_gnuplot_script(config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    args = ["sweep", "--config", config_path, "--out", str(tmp_path / "plot.csv"), "--emit-gnuplot"]
    assert main(args + ["--dump-config", str(tmp_path / "plot.gp")]) == EXIT_CONFIG
    assert "overwrite" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [Path(config_path)]


def test_effective_config_round_trips(config_path, tmp_path):
    first_csv = tmp_path / "first.csv"
    dumped = tmp_path / "effective.json"
    args = [
        "sweep",
        "--config",
        config_path,
        "--set",
        "ideal_channel=false",
        "--seed",
        "123",
    ]
    assert main(args + ["--out", str(first_csv), "--dump-config", str(dumped)]) == EXIT_OK
    second_csv = tmp_path / "second.csv"
    assert main(["sweep", "--config", str(dumped), "--out", str(second_csv)]) == EXIT_OK
    assert first_csv.read_bytes() == second_csv.read_bytes()


def test_emit_gnuplot_companion(config_path, tmp_path):
    out_path = tmp_path / "plot.csv"
    code = main(
        ["sweep", "--config", config_path, "--out", str(out_path), "--emit-gnuplot"]
    )
    assert code == EXIT_OK
    script = (tmp_path / "plot.gp").read_text()
    assert "plot.csv" in script


def _refuse_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


def test_emit_gnuplot_without_out_is_refused_before_the_sweep(config_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    assert main(["sweep", "--config", config_path, "--emit-gnuplot"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "--out" in captured.err


def test_emit_gnuplot_never_overwrites_the_csv(config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    out_path = tmp_path / "plot.gp"
    assert main(["sweep", "--config", config_path, "--out", str(out_path), "--emit-gnuplot"]) == EXIT_CONFIG
    assert not out_path.exists()
    assert "overwrite" in capsys.readouterr().err


def test_stdout_output(config_path, capsys):
    assert main(["simulate", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("T_ms,")


def test_fractional_period_override_is_refused(config_path, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    assert main(["simulate", "--config", config_path, "--set", "period_ms=100.7"]) == EXIT_CONFIG
    assert "not a whole number" in capsys.readouterr().err
    args = ["simulate", "--config", config_path, "--set", "period_ms=100.0", "--out", str(out_path)]
    assert main(args) == EXIT_OK
    assert out_path.read_text().splitlines()[1].startswith("100,")


def test_large_seed_override_stays_exact(config_path, tmp_path):
    dumped = tmp_path / "effective.json"
    seed = 2**53 + 1
    args = ["simulate", "--config", config_path, "--set", f"master_seed={seed}"]
    assert main(args + ["--out", str(tmp_path / "out.csv"), "--dump-config", str(dumped)]) == EXIT_OK
    assert json.loads(dumped.read_text())["master_seed"] == seed


@pytest.mark.parametrize("override", ["p=nan", "runs=inf", "interference_rate=0,-inf"])
def test_non_finite_override_is_a_config_error(config_path, capsys, override):
    assert main(["sweep", "--config", config_path, "--set", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(override.partition("=")[0]) in err


def test_roster_beyond_the_u64_id_range_is_a_config_error(config_path, capsys, monkeypatch):
    # Roster ids run up to n_nodes and a device id is a u64; the config is
    # refused before any roster is built.
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    args = ["simulate", "--config", config_path, "--set", f"n_nodes={2**64}"]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_nodes" in err


@pytest.mark.parametrize("override", ["shadow_std_db=-1", "carrier_hz=0", "carrier_hz=-1"])
def test_out_of_range_radio_constant_is_a_config_error(config_path, capsys, override):
    assert main(["sweep", "--config", config_path, "--set", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and override.partition("=")[0] in err


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_thread_count_below_one_is_a_config_error(config_path, capsys, threads):
    assert main(["sweep", "--config", config_path, "--threads", threads]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "threads" in err


@pytest.mark.parametrize("filter_len", ["1", "-1"])
def test_filter_len_option_is_checked_like_the_config_key(config_path, capsys, filter_len):
    assert main(["compare-filter", "--config", config_path, "--filter-len", filter_len]) == EXIT_CONFIG
    assert "filter_len" in capsys.readouterr().err


def test_overflowing_doppler_argument_runs_as_an_uncorrelated_channel(config_path, tmp_path):
    # At 1e300 km/h the J0 argument overflows to inf and the correlation is
    # J0's limit 0, as it is clamped to at 30 km/h (J0(4.19) < 0).
    csvs = []
    for velocity in ("1e300", "30"):
        out_path = tmp_path / f"{velocity}.csv"
        overrides = ["--set", "ideal_channel=false", "--set", f"velocity_kmph={velocity}"]
        args = ["simulate", "--config", config_path, *overrides, "--out", str(out_path)]
        assert main(args) == EXIT_OK
        csvs.append(out_path.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("key", ["sim_length_s", "p", "tx_power_dbm"])
@pytest.mark.parametrize(
    "value", [True, "5", None, [[0.5]], math.nan, math.inf, -math.inf], ids=repr
)
def test_config_value_of_another_kind_is_refused(tmp_path, capsys, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, key: value}))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err


def _bound(key, accepted, refused, **others):
    """A row: the config at one of ``key``'s bounds, and the first config past it."""
    return pytest.param(
        {**others, key: accepted}, {**others, key: refused}, (key,), id=f"{key}={refused!r}"
    )


TINY = math.ulp(0.0)
HUGE = sys.float_info.max

# One row per bound of every SimConfig key: the value at the bound is
# accepted and the first value past it is refused, naming the key. An open
# bound (> 0) is refused at 0; sim_length_s and slot_s are then accepted at
# the least value the 100 ms period allows. A key of one kind only is
# bounded by the float range or by its kind.
CONFIG_BOUNDS = [
    _bound("runs", 1, 0),
    _bound("sim_length_s", 0.1, 0.0),
    _bound("slot_s", 0.1, 0.0),
    _bound("period_ms", 1, 0, slot_s=0.001),
    _bound("period_ms", 1, -100, slot_s=0.001),
    _bound("n_nodes", 1, 0, n_active=1),
    _bound("n_nodes", 2**64 - 1, 2**64),
    _bound("n_active", 0, -1),
    _bound("p", 0.0, -TINY),
    _bound("p", 1.0, math.nextafter(1.0, 2.0)),
    _bound("interference_rate", 0.0, -TINY),
    _bound("interference_rate", 1.0, math.nextafter(1.0, 2.0)),
    _bound("filter_len", 0, -1),
    _bound("ideal_channel", False, 0),
    _bound("master_seed", 0, -1),
    _bound("master_seed", 2**64 - 1, 2**64),
    _bound("tx_power_dbm", HUGE, math.inf),
    _bound("sensitivity_dbm", -HUGE, -math.inf),
    _bound("shadow_std_db", 0.0, -TINY),
    _bound("carrier_hz", TINY, 0.0),
    _bound("pathloss_exponent", -HUGE, -math.inf),
    _bound("pathloss_exponent", HUGE, math.inf),
    _bound("pathloss_ref_db", -HUGE, -math.inf),
    _bound("pathloss_ref_db", HUGE, math.inf),
    _bound("area_m", TINY, 0.0),
    _bound("velocity_kmph", 0.0, -TINY),
    # The three checks that tie two keys; BASE_CONFIG has 100 ms periods of
    # 10 ms slots and a -20 dBm transmit power.
    pytest.param(
        {"n_nodes": 3, "n_active": 3},
        {"n_nodes": 3, "n_active": 4},
        ("n_active", "n_nodes"),
        id="n_active>n_nodes",
    ),
    pytest.param(
        {"sensitivity_dbm": math.nextafter(-20.0, -math.inf)},
        {"sensitivity_dbm": -20.0},
        ("sensitivity_dbm", "tx_power_dbm"),
        id="sensitivity_dbm>=tx_power_dbm",
    ),
    pytest.param(
        {"sim_length_s": 0.1},
        {"sim_length_s": 0.1 - 2e-9},
        ("period_ms", "sim_length_s"),
        id="period_ms>run",
    ),
    pytest.param(
        {"slot_s": 0.1}, {"slot_s": 0.1 + 2e-9}, ("period_ms", "slot_s"), id="period_ms%slot_s"
    ),
]


def test_config_bounds_cover_every_key():
    covered = {key for row in CONFIG_BOUNDS if len(row.values[2]) == 1 for key in row.values[2]}
    assert covered == {key.name for key in dataclasses.fields(SimConfig)}


@pytest.mark.parametrize("accepted, refused, named", CONFIG_BOUNDS)
def test_config_bound_is_accepted_and_the_value_past_it_refused(
    config_path, monkeypatch, capsys, accepted, refused, named
):
    seen = []
    monkeypatch.setattr(cli, "sweep", lambda cfg, threads: seen.append(cfg) or [])

    def cli_run(overrides):
        args = ["simulate", "--config", config_path]
        for key, value in overrides.items():
            args += ["--set", f"{key}={_set_text(value, False)}"]
        return main(args)

    cfg = SimConfig(**{**BASE_CONFIG, **accepted})
    assert SimConfig.from_dict({**BASE_CONFIG, **accepted}) == cfg
    for key, value in accepted.items():
        assert cfg.to_dict()[key] in (value, [value])
    assert cli_run(accepted) == EXIT_OK and seen == [cfg]

    for build in (SimConfig, lambda **raw: SimConfig.from_dict(raw)):
        with pytest.raises(ConfigError) as refusal:
            build(**{**BASE_CONFIG, **refused})
        assert all(re.search(rf"\b{key}\b", str(refusal.value)) for key in named)
    capsys.readouterr()
    assert cli_run(refused) == EXIT_CONFIG and seen == [cfg]
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert all(re.search(rf"\b{key}\b", err) for key in named)


def _real_lists(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=5).map(tuple)


@st.composite
def _valid_configs(draw):
    slot_ms = draw(st.sampled_from([1, 2, 5, 10]))
    period_ms = draw(st.lists(st.integers(1, 100).map(lambda k: 10 * k), min_size=1, max_size=4))
    n_nodes = draw(st.integers(1, 64))
    tx_power_dbm = draw(st.floats(-60.0, 30.0))
    return SimConfig(
        runs=draw(st.integers(1, 10**6)),
        sim_length_s=draw(st.floats(max(period_ms) / 1000, 1e5)),
        slot_s=slot_ms / 1000,
        period_ms=tuple(period_ms),
        n_nodes=n_nodes,
        n_active=draw(st.integers(0, n_nodes)),
        p=draw(_real_lists(0.0, 1.0)),
        interference_rate=draw(_real_lists(0.0, 1.0)),
        filter_len=draw(st.integers(0, 50)),
        ideal_channel=draw(st.booleans()),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        tx_power_dbm=tx_power_dbm,
        sensitivity_dbm=tx_power_dbm - draw(st.floats(1e-3, 150.0)),
        shadow_std_db=draw(st.floats(0.0, 20.0)),
        carrier_hz=draw(st.floats(1e6, 1e11)),
        pathloss_exponent=draw(st.floats(1.0, 6.0)),
        pathloss_ref_db=draw(st.floats(0.0, 100.0)),
        area_m=draw(st.floats(1e-3, 1e5)),
        velocity_kmph=draw(st.floats(0.0, 500.0)),
    )


@settings(max_examples=100, deadline=None)
@given(_valid_configs())
def test_config_round_trips_through_dict_and_dump(cfg):
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with tempfile.TemporaryDirectory() as tmp:
        dumped = str(Path(tmp) / "effective.json")
        cli._write_output(cli.config_json(cfg), dumped)
        assert cli.load_config(dumped, [], None) == cfg


def _set_text(value, trailing_comma: bool) -> str:
    """A config value as ``--set`` spells it: true/false, a number, or a comma list."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ",".join(map(repr, value)) + ("," if trailing_comma else "")
    return repr(value)


@settings(max_examples=100, deadline=None)
@given(_valid_configs(), st.booleans())
def test_set_overrides_round_trip_through_their_text(cfg, trailing_comma):
    # Every field, channel constants included, given only as --set text over
    # an empty config file. A lone grid value loads as a one-point grid,
    # with or without a trailing comma.
    overrides = [f"{key}={_set_text(v, trailing_comma)}" for key, v in cfg.to_dict().items()]
    with tempfile.TemporaryDirectory() as tmp:
        empty = Path(tmp) / "empty.json"
        empty.write_text("{}")
        loaded = cli.load_config(str(empty), overrides, None)
    for key, value in cfg.to_dict().items():
        assert loaded.to_dict()[key] == value, key
    assert loaded == cfg
