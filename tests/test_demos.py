"""Run each narrative script under demos/ in its own interpreter and compare
its stdout byte for byte with the text recorded in tests/oracles/demo_*.txt.
To re-record after an intended change, run each demo with PYTHONPATH=src and
redirect its stdout to the matching file."""

import os
import subprocess
import sys

import pytest

from helpers import ORACLE_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def test_every_demo_has_a_recording():
    assert len(DEMOS) == 4
    for name in DEMOS:
        assert os.path.exists(os.path.join(ORACLE_DIR, f"demo_{name[:-3]}.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_is_byte_identical(name):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(ORACLE_DIR, f"demo_{name[:-3]}.txt"), "r", encoding="utf-8") as fh:
        assert done.stdout == fh.read()
