"""Start-up: the CLI loads no scipy package and, serially, no process pool.

``beepid.channel`` loads the two compiled scipy kernels it calls straight
from their extension files, so ``import beepid.cli`` must not pull in
``scipy.signal`` (which imports ``scipy.stats``) or ``scipy.special``. The
process pool is imported only when a sweep starts workers, so a serial run
never loads ``concurrent.futures`` or ``multiprocessing``, and the timed
sweep imports nothing. Every check runs in a fresh interpreter, since the
test process itself imports scipy and the pool freely; the five serial
commands are probed once each, and the three checks read those results.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_PACKAGES = ("scipy.signal", "scipy.special", "scipy.stats")
POOL_PACKAGES = ("concurrent.futures", "multiprocessing")

# Runs ``cli.main(argv)`` (nothing when argv is empty) and prints, as the last
# line, the exit code, every loaded module, and the modules first imported
# after ``load_config`` returned.
PROBE = """
import json, sys
import beepid.cli as cli
snapshot = {}
load_config = cli.load_config
def hooked(*args, **kwargs):
    cfg = load_config(*args, **kwargs)
    snapshot["modules"] = set(sys.modules)
    return cfg
cli.load_config = hooked
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
late = set(sys.modules) - snapshot.get("modules", set(sys.modules))
print(json.dumps({"code": code, "modules": sorted(sys.modules), "late": sorted(late)}))
"""

# Public scipy still imports after the direct load, and its lfilter, given the
# (real, imag) float pairs rayleigh_sequence filters, gives the same bits.
PUBLIC_LFILTER = """
import json, math
import numpy as np
import beepid.channel as channel
from beepid.channel import doppler_correlation, j0, rayleigh_sequence, standard_complex_normal
import scipy.signal, scipy.special
assert scipy.signal._sigtools._linear_filter is channel._linear_filter
rng = np.random.default_rng(11)
g0 = standard_complex_normal(rng, 3)
noise = standard_complex_normal(rng, (3, 700))
pairs = lambda values: values[..., None].view(np.float64)
rhos = (0.0, 0.3, 1.0, doppler_correlation(3.0, 2.4e9, 0.01))
for rho in rhos:
    zi = pairs(rho * g0)[:, None, :]
    gains, _ = scipy.signal.lfilter(
        [1.0], [1.0, -rho], math.sqrt(1.0 - rho * rho) * pairs(noise), axis=1, zi=zi
    )
    expected = gains.view(np.complex128)[..., 0]
    assert np.array_equal(rayleigh_sequence(g0, rho, noise.copy()), expected), rho
x = np.linspace(0.0, 50.0, 5001)
assert np.array_equal(j0(x), scipy.special.j0(x))
print(json.dumps(len(rhos)))
"""


def _python(code: str, *args: str):
    """Run ``code`` in a fresh interpreter with the package importable; its last line, as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _config(tmp_path, **overrides) -> str:
    path = tmp_path / "config.json"
    config = {
        "runs": 2,
        "sim_length_s": 2.0,
        "period_ms": [100],
        "p": [0.2],
        "interference_rate": [0.05],
        "master_seed": 3,
    }
    path.write_text(json.dumps({**config, **overrides}))
    return str(path)


COMMANDS = ("import", "analyze", "ideal-sweep", "sweep", "compare-filter")
RUNS = ("ideal-sweep", "sweep", "compare-filter")


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    """Each command's probe result, from one fresh interpreter per command."""
    results = {}
    for command in COMMANDS:
        tmp_path = tmp_path_factory.mktemp(command)
        run = ["--out", str(tmp_path / "out.csv"), "--threads", "1"]
        argv = {
            "import": [],
            "analyze": ["analyze", "--n", "10"],
            "ideal-sweep": ["sweep", "--config", _config(tmp_path, ideal_channel=True), *run],
            "sweep": ["sweep", "--config", _config(tmp_path), *run],
            "compare-filter": ["compare-filter", "--config", _config(tmp_path), "--filter-len", "6", *run],
        }[command]
        results[command] = {**_python(PROBE, *argv), "out": tmp_path / "out.csv"}
    return results


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_loads_no_scipy_package(probes, command):
    assert probes[command]["code"] == 0
    assert not set(SCIPY_PACKAGES) & set(probes[command]["modules"])


@pytest.mark.parametrize("command", COMMANDS)
def test_serial_cli_loads_no_process_pool(probes, command):
    assert probes[command]["code"] == 0
    assert not set(POOL_PACKAGES) & set(probes[command]["modules"])


def test_fading_sweep_imports_nothing_after_the_config_is_loaded(probes):
    # Anything imported inside the sweep is timed as wall_s, not setup_s;
    # every run command is checked, the ideal-channel sweep too.
    for command in RUNS:
        assert probes[command]["late"] == [], command
        assert probes[command]["out"].read_text().count("\n") == 2, command


def test_threaded_sweep_imports_the_pool_and_writes_the_serial_bytes(tmp_path):
    config = _config(tmp_path, p=[0.2, 0.4])
    csv = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        argv = ["sweep", "--config", config, "--out", str(out), "--threads", threads]
        result = _python(PROBE, *argv)
        assert result["code"] == 0
        csv[threads] = out.read_bytes()
    assert csv["2"] == csv["1"] and csv["1"].count(b"\n") == 3
    # The last probe ran at two threads: the pool was imported inside the sweep.
    assert "concurrent.futures.process" in result["late"]


def test_public_scipy_imports_after_the_direct_load_and_gives_the_same_bits():
    assert _python(PUBLIC_LFILTER) == 4
