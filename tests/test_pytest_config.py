"""The pytest settings in pyproject.toml, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_does_not_abort_the_session(tmp_path):
    # With warnings as errors, a deprecation warning raised while hypothesis
    # reports a failure must not become an INTERNALERROR that skips later tests.
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


def test_misspelled_marker_fails_the_run(tmp_path):
    # An unknown marker is a collection error, not a warning that `-W` or a changed
    # filterwarnings could let through: -m 'not slow' would then run a test marked
    # @pytest.mark.slwo in the default suite.
    (tmp_path / "test_probe.py").write_text(
        "import pytest\n\n\n"
        "@pytest.mark.slwo\n"
        "def test_long():\n"
        "    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-W", "ignore::pytest.PytestUnknownMarkWarning", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "'slwo' not found in `markers` configuration option" in done.stdout, done.stdout
