"""Replay the recorded CLI reports (tests/oracles/cli_golden.json, written by
tests/oracles/cli_golden.py) in-process and compare stdout byte for byte.
Input files named in argv are resolved relative to tests/oracles/, as when
they were recorded."""

import pytest

from qsetalg.cli import main

from helpers import ORACLE_DIR, load_oracle

GOLDEN = load_oracle("cli_golden")


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_cli_output_is_byte_identical(capsys, monkeypatch, entry):
    monkeypatch.chdir(ORACLE_DIR)
    code = main(entry["argv"])
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["exit"]
