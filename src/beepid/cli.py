"""Command-line front end.

Four subcommands: ``analyze`` evaluates the closed forms, ``simulate``
runs one parameter point, ``sweep`` covers the configured grid, and
``compare-filter`` reports filtered-vs-unfiltered gains. Simulation
commands read a flat JSON config (same keys as SimConfig.to_dict),
accept ``--set key=value`` overrides (comma lists for grids), and emit
schema-stable CSV. ``--seed N`` and ``--filter-len M`` are spellings of
``--set master_seed=N`` and ``--set filter_len=M``: every override is
applied in command-line order over the config file, and each key's reader
then checks the result.

Exit codes: 0 success, 1 configuration error (usage errors included),
2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from .analysis import false_id_prob, optimal_p, optimal_T, optimal_T_exact
from .montecarlo import (
    ConfigError,
    FilterComparison,
    MetricsRecord,
    SimConfig,
    compare_filtering,
    sweep,
)

METRICS_HEADER = (
    "T_ms,p,interference_rate,filter_len,runs,events,tp,fn,tn,fp,tp_rate,tn_rate"
)
COMPARE_HEADER = (
    "T_ms,p,interference_rate,filter_len,runs,"
    "tp_rate_off,tp_rate_on,tn_rate_off,tn_rate_on,tp_gain,tn_loss,net"
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def metrics_csv(records: list[MetricsRecord]) -> str:
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(
            f"{r.t_ms},{_fmt(r.p)},{_fmt(r.interference_rate)},{r.filter_len},"
            f"{r.runs},{r.events},{r.tp},{r.fn},{r.tn},{r.fp},"
            f"{_fmt(r.tp_rate)},{_fmt(r.tn_rate)}"
        )
    return "\n".join(lines) + "\n"


def compare_csv(records: list[FilterComparison]) -> str:
    lines = [COMPARE_HEADER]
    for r in records:
        off, on = r.off, r.on
        lines.append(
            f"{on.t_ms},{_fmt(on.p)},{_fmt(on.interference_rate)},{on.filter_len},"
            f"{on.runs},{_fmt(off.tp_rate)},{_fmt(on.tp_rate)},"
            f"{_fmt(off.tn_rate)},{_fmt(on.tn_rate)},"
            f"{_fmt(r.tp_gain)},{_fmt(r.tn_loss)},{_fmt(r.net)}"
        )
    return "\n".join(lines) + "\n"


def config_json(cfg: SimConfig) -> str:
    """The effective config as ``--dump-config`` writes it; ``--config`` reads it back."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


GNUPLOT_TEMPLATE = """\
# Companion gnuplot script: TP/TN rate against beep probability.
set datafile separator ','
set xlabel 'beep probability p'
set ylabel 'rate'
set yrange [0:1.05]
set key outside
plot '{csv}' using 2:11 with points title 'TP rate', \\
     '{csv}' using 2:12 with points title 'TN rate'
"""


def _parse_number(text: str) -> int | float:
    """An int when the text spells one, so that it stays exact; else a float.

    NaN and infinities pass here: the key's reader refuses them and names the key.
    """
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    parts = [part for part in raw.split(",") if part != ""]
    values: list[object] = []
    for part in parts:
        try:
            values.append(_parse_number(part))
        except ValueError:
            raise ConfigError(f"override {text!r}: {part!r} is not a number") from None
    if not values:
        raise ConfigError(f"override {text!r} carries no value")
    return key, values if len(values) > 1 or "," in raw else values[0]


def load_config(path: str, overrides: list[str]) -> SimConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    for text in overrides:
        key, value = _parse_override(text)
        raw[key] = value
    return SimConfig.from_dict(raw)


def _write_output(text: str, out_path: str | Path | None) -> None:
    """The one writer of every CLI output: the file at ``out_path``, or stdout."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, newline="")


def cmd_analyze(args: argparse.Namespace) -> int:
    n = args.n
    if (args.p is None) != (args.T is None):
        raise ConfigError("--p and --T must be given together")
    try:
        # optimal_p checks n first, so that 1/n below is a float; the period
        # solvers check the target.
        p_opt = optimal_p(n)
        target = args.target if args.target is not None else 1.0 / n
        t_opt, t_exact = optimal_T(n, target), optimal_T_exact(n, target)
        if args.p is not None:
            prob = false_id_prob(n, args.p, args.T)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.p is not None:
        print(f"false_id_prob(n={n}, p={args.p}, T={args.T}) = {prob:.12g}")
    print(f"optimal_p(n={n}) = {p_opt:.12g}")
    print(f"optimal_T(n={n}, target={target:.12g}) = {t_opt:.12g}")
    print(f"optimal_T_exact(n={n}, target={target:.12g}) = {t_exact:.12g}")
    print(f"false_id target = {target:.12g}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    """simulate, sweep and compare-filter: one Monte-Carlo, three views of it.

    Every output must be a file in an existing directory, each its own, before
    the config is read; the gnuplot script goes beside the CSV. The CSV, the
    script and the config are written in that order once the run is done.
    """
    gnuplot = None
    if args.emit_gnuplot:
        if args.out is None:
            raise ConfigError("--emit-gnuplot needs --out: the script plots the CSV file")
        gnuplot = Path(args.out).with_suffix(".gp")
    outputs = {"--out": args.out, "--dump-config": args.dump_config, "--emit-gnuplot": gnuplot}
    claimed: dict[Path, str] = {}
    for option, path in outputs.items():
        if path is None:
            continue
        if Path(path).is_dir() or not Path(path).absolute().parent.is_dir():
            raise ConfigError(f"{option} {path} is not a file in an existing directory")
        owner = claimed.setdefault(Path(path).resolve(), option)
        if owner != option:
            raise ConfigError(f"{option} {path} would overwrite the {owner} file")
    cfg = load_config(args.config, args.set or [])
    if args.command == "simulate":
        cfg.require_single_point()
    if args.command == "compare-filter":
        csv = compare_csv(compare_filtering(cfg, threads=args.threads))
    else:
        csv = metrics_csv(sweep(cfg, threads=args.threads))
    _write_output(csv, args.out)
    if gnuplot is not None:
        _write_output(GNUPLOT_TEMPLATE.format(csv=Path(args.out).name.replace("'", "''")), gnuplot)
    if args.dump_config is not None:
        _write_output(config_json(cfg), args.dump_config)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1), not with argparse's exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beepid",
        description="Beep-pattern device identification: analysis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="evaluate the closed-form protocol formulas")
    p_an.add_argument("--n", type=int, required=True, help="number of active stations")
    p_an.add_argument("--p", type=float, default=None, help="beep probability")
    p_an.add_argument("--T", type=int, default=None, help="period length in slots")
    p_an.add_argument(
        "--target",
        type=float,
        default=None,
        help="false-identification target probability (default 1/n)",
    )
    p_an.set_defaults(func=cmd_analyze)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to JSON config")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (grids as comma lists); repeatable",
    )
    common.add_argument(
        "--seed",
        dest="set",
        action="append",
        type="master_seed={}".format,
        metavar="SEED",
        help="same as --set master_seed=SEED",
    )
    common.add_argument("--out", default=None, help="CSV output path (default stdout)")
    common.add_argument("--threads", type=int, default=1, help="worker processes")
    common.add_argument(
        "--dump-config", default=None, help="write the effective config JSON here"
    )
    common.set_defaults(func=cmd_run, emit_gnuplot=False)

    sub.add_parser("simulate", parents=[common], help="run a single parameter point")

    p_sw = sub.add_parser("sweep", parents=[common], help="run the full parameter grid")
    p_sw.add_argument(
        "--emit-gnuplot",
        action="store_true",
        help="write a companion gnuplot script next to the CSV",
    )

    p_cf = sub.add_parser(
        "compare-filter",
        parents=[common],
        help="paired filtered-vs-unfiltered comparison",
    )
    p_cf.add_argument(
        "--filter-len",
        dest="set",
        action="append",
        type="filter_len={}".format,
        metavar="M",
        help="filter window length m; same as --set filter_len=M",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
