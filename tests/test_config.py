"""The repository's pytest configuration, exercised in a child pytest."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    # every warning is an error, yet hypothesis's failure report must not
    # become an internal error (exit 3) that stops the tests after it
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
