"""CLI: subcommands, overrides, CSV schema, exit codes, determinism."""

import contextlib
import dataclasses
import errno
import hashlib
import importlib.util
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from test_byte_contract import MATRIX_SHA256

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
DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def test_default_config_file_spells_out_the_defaults():
    raw = json.loads(DEFAULT_CONFIG.read_text())
    assert SimConfig.from_dict(raw) == SimConfig()
    assert list(SimConfig().to_dict()) == list(raw)


# The default config's CSV pins, spelled with the --seed and --filter-len
# options rather than --set: both spellings must write the same bytes.
@pytest.mark.parametrize("command, seed", [("compare-filter", 1), ("sweep", 1)])
def test_csv_bytes_are_pinned(tmp_path, command, seed):
    extra = ["--filter-len", "6"] if command == "compare-filter" else []
    for threads in ("1", "2"):
        out_path = tmp_path / f"{command}-{threads}.csv"
        args = [command, *extra, "--config", str(DEFAULT_CONFIG), "--set", "runs=2"]
        args += ["--seed", str(seed), "--threads", threads, "--out", str(out_path)]
        assert main(args) == EXIT_OK
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == MATRIX_SHA256[()][command == "compare-filter"], threads


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
    assert "override 'p=high': 'high' is not a number" in capsys.readouterr().err
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


def test_runtime_error_without_a_message_names_its_class(config_path, monkeypatch, capsys):
    # An allocation that fails deep in numpy raises a MemoryError with no text.
    def out_of_memory(cfg, threads):
        raise MemoryError()

    monkeypatch.setattr(cli, "sweep", out_of_memory)
    assert main(["sweep", "--config", config_path]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: MemoryError\n"


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--config", str(DEFAULT_CONFIG), "--threads", "x"],
        ["simulate"],
        ["analyze", "--n", "x"],
        ["compare-filter", "--config", str(DEFAULT_CONFIG), "--filter-len"],
        ["bogus"],
    ],
    ids=["threads=x", "no-config", "n=x", "filter-len-no-value", "unknown-command"],
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
    # gnuplot spells a quote inside a single-quoted string as two.
    for name, quoted in (("plot", "'plot.csv'"), ("it's", "'it''s.csv'")):
        out_path = tmp_path / f"{name}.csv"
        code = main(
            ["sweep", "--config", config_path, "--out", str(out_path), "--emit-gnuplot"]
        )
        assert code == EXIT_OK
        script = (tmp_path / f"{name}.gp").read_text()
        assert f"plot {quoted} using 2:11" in script and f"{quoted} using 2:12" in script


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


def test_whole_float_below_2_53_reads_as_its_integer(config_path, tmp_path):
    dumped = tmp_path / "effective.json"
    args = ["simulate", "--config", config_path, "--seed", "9007199254740991.0"]
    assert main(args + ["--out", str(tmp_path / "out.csv"), "--dump-config", str(dumped)]) == EXIT_OK
    assert json.loads(dumped.read_text())["master_seed"] == 2**53 - 1


@pytest.mark.parametrize(
    "option, key",
    [(["--seed", "9007199254740993.0"], "master_seed"), (["--set", "n_nodes=1e19"], "n_nodes")],
    ids=["seed", "n_nodes"],
)
def test_whole_float_at_or_beyond_2_53_is_a_config_error(
    config_path, capsys, monkeypatch, option, key
):
    # The text 9007199254740993.0, 2^53 + 1, reads as the float 2^53.
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    assert main(["simulate", "--config", config_path, *option]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err and "integer" in err


@pytest.mark.parametrize("override", ["p=nan", "runs=inf", "interference_rate=0,-inf"])
def test_non_finite_override_is_a_config_error(config_path, capsys, override):
    assert main(["sweep", "--config", config_path, "--set", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(override.partition("=")[0]) in err

@pytest.mark.parametrize("key", ["shadow_std_db", "p"])
def test_negative_zero_reads_as_zero(config_path, tmp_path, key):
    # numpy refuses a normal scale of -0.0, which is 0 <= -0.0 all the same.
    csvs = []
    for value in ("-0.0", "0"):
        out_path = tmp_path / f"{value}.csv"
        overrides = ["--set", "ideal_channel=false", "--set", f"{key}={value}"]
        assert main(["simulate", "--config", config_path, *overrides, "--out", str(out_path)]) == EXIT_OK
        csvs.append(out_path.read_bytes())
    assert csvs[0] == csvs[1]


# Each exited 0 or 2 on a non-finite link budget before the dB keys had ranges.
@pytest.mark.parametrize(
    "overrides, named",
    [
        # An overflowing budget: the reader that refuses first names its key.
        (["pathloss_ref_db=1.7e308", "shadow_std_db=1.7e308"], "shadow_std_db"),
        (["pathloss_ref_db=1.7e308"], "pathloss_ref_db"),
        # An infinite budget, with every beep heard.
        (["pathloss_exponent=-1.7e308"], "pathloss_exponent"),
    ],
)
def test_link_budget_beyond_the_radio_ranges_is_a_config_error(config_path, capsys, overrides, named):
    args = ["simulate", "--config", config_path, "--set", "ideal_channel=false"]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(named) in err


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_thread_count_below_one_is_a_config_error(config_path, capsys, threads):
    assert main(["sweep", "--config", config_path, "--threads", threads]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "threads" in err


@pytest.mark.parametrize("filter_len", ["1", "-1"])
def test_filter_len_option_is_checked_like_the_config_key(config_path, capsys, filter_len):
    assert main(["compare-filter", "--config", config_path, "--filter-len", filter_len]) == EXIT_CONFIG
    assert "filter_len" in capsys.readouterr().err


# Each option that spells an override, with the subcommand it belongs to and
# the key it sets.
SPELLINGS = {"--seed": ("sweep", "master_seed"), "--filter-len": ("compare-filter", "filter_len")}


def _stubbed_run(command, options):
    """Exit code, stderr and dumped config of ``command`` over BASE_CONFIG, evaluating nothing."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        config, out, dumped = (Path(tmp) / name for name in ("in.json", "out.csv", "cfg.json"))
        config.write_text(json.dumps(BASE_CONFIG))
        for evaluator in ("sweep", "compare_filtering"):
            patch.setattr(cli, evaluator, lambda cfg, threads: [])
        args = [command, "--config", str(config), *options, "--out", str(out)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*args, "--dump-config", str(dumped)])
        return code, err.getvalue(), dumped.read_bytes() if code == EXIT_OK else None


@pytest.mark.parametrize("option", sorted(SPELLINGS))
@settings(max_examples=50, deadline=None)
@given(text=st.integers(-2, 2**64 + 1).map(str))
@example(text="1e3")
@example(text="6.0")
@example(text="1.5")
@example(text="007")
@example(text="x")
@example(text="nan")
def test_override_option_reads_its_value_like_set(option, text):
    command, key = SPELLINGS[option]
    assert _stubbed_run(command, [option, text]) == _stubbed_run(command, ["--set", f"{key}={text}"])


@pytest.mark.parametrize(
    "options, seed",
    [(["--set", "master_seed=3", "--seed", "5"], 5), (["--seed", "5", "--set", "master_seed=3"], 3)],
    ids=["seed-last", "set-last"],
)
def test_the_later_seed_override_wins(options, seed):
    code, _, dumped = _stubbed_run("sweep", options)
    assert code == EXIT_OK and json.loads(dumped)["master_seed"] == seed


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


GRIDS = ("period_ms", "p", "interference_rate")
WHOLE = ("runs", "period_ms", "n_nodes", "n_active", "filter_len", "master_seed")


def _other_kinds(key):
    """Values of a kind ``key`` does not read, each refused whatever its range."""
    if key == "ideal_channel":
        yield from (0, 1, "true", [True])
    else:
        yield True
    yield from ("5", None, [[0.5]], [], math.nan, math.inf, -math.inf)
    if key in WHOLE:
        yield 1.5
    if key not in GRIDS:
        yield [1.0]  # a lone value in a list reads as a one-point grid only


# Every SimConfig key with each value of another kind.
OTHER_KINDS = [
    pytest.param(key.name, value, id=f"{value!r}-{key.name}")
    for key in dataclasses.fields(SimConfig)
    for value in _other_kinds(key.name)
]


@pytest.mark.parametrize("key, value", OTHER_KINDS)
def test_config_value_of_another_kind_is_refused(tmp_path, monkeypatch, capsys, key, value):
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        SimConfig(**{**BASE_CONFIG, key: value})
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
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
# the least value the 100 ms period allows. The bool ideal_channel is
# bounded by its kind.
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
    _bound("tx_power_dbm", 300.0, math.nextafter(300.0, math.inf)),
    _bound("sensitivity_dbm", -300.0, math.nextafter(-300.0, -math.inf)),
    _bound("shadow_std_db", 0.0, -TINY),
    _bound("shadow_std_db", 100.0, math.nextafter(100.0, math.inf)),
    _bound("carrier_hz", TINY, 0.0),
    _bound("pathloss_exponent", 0.0, -TINY),
    _bound("pathloss_exponent", 10.0, math.nextafter(10.0, math.inf)),
    _bound("pathloss_ref_db", 0.0, -TINY),
    _bound("pathloss_ref_db", 300.0, math.nextafter(300.0, math.inf)),
    _bound("area_m", TINY, 0.0),
    _bound("velocity_kmph", 0.0, -TINY),
    # An infinity, the first value past a dB key before it had a range, is
    # refused past the same edges.
    _bound("tx_power_dbm", 300.0, math.inf),
    _bound("sensitivity_dbm", -300.0, -math.inf),
    _bound("pathloss_exponent", 0.0, -math.inf),
    _bound("pathloss_exponent", 10.0, math.inf),
    _bound("pathloss_ref_db", 0.0, -math.inf),
    _bound("pathloss_ref_db", 300.0, math.inf),
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
        assert cli.load_config(dumped, []) == cfg


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
        loaded = cli.load_config(str(empty), overrides)
    for key, value in cfg.to_dict().items():
        assert loaded.to_dict()[key] == value, key
    assert loaded == cfg


CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _load_checks():
    """The benchmark's CSV checker, imported by path so that there is one checker."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


_NOT_REAL = [math.nan, math.inf, -math.inf, True, "1", None, [[1.0]]]
_POSITIVE = st.floats(0.0, HUGE, exclude_min=True)


def _key(valid, *invalid):
    """A key's values: in range with its edges, and past its range or of another kind."""
    return valid, st.sampled_from([*invalid, *_NOT_REAL])


def _between(lo, hi):
    edges = [lo, hi, -0.0] if lo == 0 else [lo, hi]  # -0.0 reads as 0.0
    past = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), -HUGE, HUGE)
    return _key(st.one_of(st.floats(lo, hi), st.sampled_from(edges)), *past)


def _grid(values):
    valid, wrong = values
    return (
        st.one_of(valid, st.lists(valid, min_size=1, max_size=3)),
        st.one_of(wrong, st.lists(wrong, min_size=1, max_size=2), st.just([])),
    )


# Every key, each over in-range values and its edges, and over values past
# its range or of another kind. The work stays bounded: at most 2 runs of
# at most 2 s of slots of 1 ms or more, at most 40 ids and 3 values per
# grid. The least slot_s drawn, 1e-300, overflows the slot count and is
# refused before any array is built.
_MISUSE_KEYS = {
    "runs": _key(st.sampled_from([1, 2, 2.0]), 0, -1, 1.5),
    "sim_length_s": _key(st.floats(TINY, 2.0), 0.0, -0.0, -1.0, 1e300),
    "slot_s": _key(st.sampled_from([1e-300, 1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.1]), 0.0, -0.0, -0.01),
    "period_ms": _grid(_key(st.sampled_from([1, 10, 50, 70, 100, 130, 1000]), 0, -100, 1.5, 10**400)),
    "n_nodes": _key(st.integers(1, 40), 0, -1, 2**64, 1.5),
    "n_active": _key(st.integers(0, 10) | st.integers(0, 40), -1, 0.5),
    "p": _grid(_between(0.0, 1.0)),
    "interference_rate": _grid(_between(0.0, 1.0)),
    "filter_len": _key(st.integers(0, 6), -1, 2.5),
    "ideal_channel": _key(st.booleans(), 0, 1, "true"),
    "master_seed": _key(st.integers(0, 2**64 - 1), -1, 2**64, 1.5),
    "tx_power_dbm": _between(-300.0, 300.0),
    "sensitivity_dbm": _between(-300.0, 300.0),
    "shadow_std_db": _between(0.0, 100.0),
    "carrier_hz": _key(_POSITIVE, 0.0, -0.0, -1.0),
    "pathloss_exponent": _between(0.0, 10.0),
    "pathloss_ref_db": _between(0.0, 300.0),
    "area_m": _key(_POSITIVE, 0.0, -0.0, -1.0),
    "velocity_kmph": _key(st.floats(0.0, HUGE), -TINY, -1.0),
}


@st.composite
def _misuse_configs(draw):
    """A config over a short two-run base: some keys set, at most two of them misused."""
    keys = draw(st.lists(st.sampled_from(sorted(_MISUSE_KEYS)), unique=True))
    wrong = keys[: draw(st.sampled_from([0, 0, 1, 2]))]  # half the configs misuse no key
    raw = {"runs": 2, "sim_length_s": 0.5, "period_ms": [50, 100], "p": [0.3]}
    return {**raw, **{key: draw(_MISUSE_KEYS[key][key in wrong]) for key in keys}}


# Derandomized: the same examples every run. The checker counts a row's
# periods in floats, which disagrees with the program's exact count at some
# decimal sim lengths (CHANGES.md FOUND line), and a random search must not
# fail tier-1 by chance on a fault of the checker.
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    _misuse_configs(),
    st.sampled_from(["sweep", "compare-filter"]),
    st.one_of(st.none(), st.integers(2, 6), st.integers(-1, 1)),
    st.sampled_from(["1", "2"]),
)
def test_no_config_is_a_runtime_error_and_every_csv_passes_the_checker(
    raw, command, filter_len, threads
):
    with tempfile.TemporaryDirectory() as tmp:
        config, out, dumped = (Path(tmp) / name for name in ("in.json", "out.csv", "cfg.json"))
        config.write_text(json.dumps(raw))
        args = [command, "--config", str(config), "--threads", threads]
        if command == "compare-filter" and filter_len is not None:
            args += ["--filter-len", str(filter_len)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*args, "--out", str(out), "--dump-config", str(dumped)])
        assert code in (EXIT_OK, EXIT_CONFIG), err.getvalue()
        assert (code == EXIT_CONFIG) == err.getvalue().startswith("config error:")
        if code == EXIT_OK:
            checks = _load_checks()
            check = checks.check_compare if command == "compare-filter" else checks.check_sweep
            assert check(out.read_text(), json.loads(dumped.read_text())) == []
