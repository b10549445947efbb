"""The suite's pytest settings, run on throwaway tests in a subprocess."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_fails_alone(tmp_path):
    # On a failing property test Hypothesis imports libcst, which warns
    # that mypy_extensions.TypedDict is deprecated; with warnings as errors
    # that warning must not stop the run before the next test.
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
