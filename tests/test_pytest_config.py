"""The suite's own pytest configuration: a failing property test is one
failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # reporting a failing example imports libcst, whose deprecation warning
    # must not turn into an internal error under filterwarnings = error
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p",
         "no:cacheprovider", "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    assert "1 failed, 1 passed" in done.stdout
