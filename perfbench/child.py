"""One benchmark repetition: run the beepid CLI in this process and time it.

Usage: python3 child.py REPORT_JSON [--spans SPANS_NPZ] -- CLI_ARGS...

The CLI runs exactly as ``beepid CLI_ARGS...`` would. Hooks on the names
``beepid.cli`` looks its callees up by record when the config is validated
(end of set-up) and when the sweep starts and its CSV is rendered (wall
time). With ``--spans``, every layer function is also wrapped under the
name its caller looks it up by, and the spans are written out at exit.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time


def _before(fn, hook):
    def hooked(*args, **kwargs):
        hook()
        return fn(*args, **kwargs)

    return hooked


def _after(fn, hook):
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook()
        return result

    return hooked


def _count_identify(counts, args, result) -> None:
    counts["identify.candidates_tested"] += len(result.candidates)
    counts["identify.accepted"] += len(result.identified)


def _count_fading(counts, args, result) -> None:
    # Noise in, gains out, both complex128: 32 bytes per (node, slot).
    counts["channel.fading_bytes"] += args[2].nbytes + result.nbytes


def _count_csv(counts, args, result) -> None:
    counts["cli.csv_bytes"] += len(result.encode())


def install_tracer(tracer, cli) -> None:
    # beepid/__init__.py re-exports ``identify``, so the submodules are
    # fetched by import path rather than as package attributes.
    montecarlo = importlib.import_module("beepid.montecarlo")
    identify = importlib.import_module("beepid.identify")
    for module, name, layer, count in (
        (montecarlo, "identify", "identify", _count_identify),
        (montecarlo, "filter_push", "identify", None),
        (montecarlo, "filter_apply", "identify", None),
        (montecarlo, "rayleigh_sequence", "channel", _count_fading),
        (montecarlo, "standard_complex_normal", "channel", None),
        (montecarlo, "derive_seed", "fingerprint", None),
        (montecarlo, "simulate_run_traces", "montecarlo", None),
        (montecarlo, "score_traces", "montecarlo", None),
        (identify, "generate_pattern", "fingerprint", None),
        (cli, "load_config", "cli", None),
        (cli, "sweep", "montecarlo", None),
        (cli, "compare_filtering", "montecarlo", None),
        (cli, "metrics_csv", "cli", _count_csv),
        (cli, "compare_csv", "cli", _count_csv),
    ):
        setattr(module, name, tracer.wrap(f"{layer}.{name}", getattr(module, name), count))


def main(argv: list[str]) -> int:
    report_path = argv[0]
    split = argv.index("--")
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv[:split] else None
    cli_args = argv[split + 1 :]

    import beepid.cli as cli

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer, cli)

    marks: dict[str, float] = {}

    def config_ready() -> None:
        marks["config_ready"] = time.perf_counter()

    # The root span "wall" covers exactly the timed region: sweep start to CSV rendered.
    def start() -> None:
        marks["start"] = time.perf_counter()
        if tracer is not None:
            tracer.begin("wall")

    def end() -> None:
        if tracer is not None:
            tracer.finish()
        marks["end"] = time.perf_counter()

    cli.load_config = _after(cli.load_config, config_ready)
    for name in ("sweep", "compare_filtering"):
        setattr(cli, name, _before(getattr(cli, name), start))
    for name in ("metrics_csv", "compare_csv"):
        setattr(cli, name, _after(getattr(cli, name), end))

    code = cli.main(cli_args)

    import numpy
    import scipy

    report = {
        "exit_code": code,
        "marks": marks,
        "peak_rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
        "beepid_file": cli.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        report["counts"] = dict(tracer.counts)
        tracer.save(spans_path)
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
