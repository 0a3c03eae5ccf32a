"""The repository's pytest configuration reports a failing property test as one failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # on a failure, hypothesis's pytest plugin imports its patch writer, and
    # that imports libcst, which warns that mypy_extensions.TypedDict is
    # deprecated; were that warning an error, pytest would stop with an
    # INTERNALERROR and run no later test
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in proc.stdout, output
    assert "INTERNALERROR" not in output
