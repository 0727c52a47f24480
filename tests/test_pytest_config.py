"""The suite's pytest settings report a failing property test instead of aborting.

``filterwarnings = ["error"]`` turns every warning into a failure. When a
hypothesis test fails, hypothesis imports libcst to write a patch of the
failing example, and that import warns; as an error it ended the run with
an INTERNALERROR, no FAILED line, and every later test unrun.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_after():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED test_probe.py::test_fails" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout
