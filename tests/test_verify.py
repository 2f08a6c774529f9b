import pytest

from qsetalg import verify
from qsetalg.verify import RunConfig, run_all


def check_names():
    return tuple(name for name, _ in verify._REGISTRY)


def test_default_run_passes_everything():
    report, ok = run_all(RunConfig())
    assert ok
    assert report.count("[PASS]") == len(check_names())
    assert "[FAIL]" not in report
    assert report.rstrip().endswith(
        f"result: {len(check_names())}/{len(check_names())} checks passed"
    )


def test_reports_are_deterministic():
    a, _ = run_all(RunConfig(seed=3))
    b, _ = run_all(RunConfig(seed=3))
    assert a == b


def test_different_seeds_still_pass():
    for seed in (1, 42):
        _, ok = run_all(RunConfig(seed=seed))
        assert ok


def test_float_mode_passes_and_is_reported():
    cfg = RunConfig(seed=0, mode="float", tolerance=1e-10)
    report, ok = run_all(cfg)
    assert ok
    assert "mode=float" in report
    again, _ = run_all(cfg)
    assert report == again


def test_config_is_echoed():
    cfg = RunConfig(seed=9)
    report, _ = run_all(cfg)
    assert cfg.describe() in report


def test_check_names_are_stable():
    names = check_names()
    assert len(names) == len(set(names)) == 13
    assert "set-codes" in names
    assert "network-contraction" in names


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="symbolic")
    with pytest.raises(ValueError):
        RunConfig(tolerance=-1.0)


def test_run_config_still_resolves_from_verify():
    from qsetalg import scalars

    assert verify.RunConfig is scalars.RunConfig


def test_verify_all_reports_a_failed_and_a_crashed_check(monkeypatch, capsys):
    """One check fails its own test and one raises: each gets its [FAIL]
    line, the others still run, and the CLI exits 1."""
    from qsetalg.cli import main

    def fails(config):
        verify._fail("frame drifted")

    def crashes(config):
        raise RuntimeError("boom")

    patched = {"frame-full": fails, "network-contraction": crashes}
    monkeypatch.setattr(verify, "_REGISTRY", tuple((name, patched.get(name, fn)) for name, fn in verify._REGISTRY))
    assert main(["verify-all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] frame-full | frame drifted" in lines
    assert "[FAIL] network-contraction | error: RuntimeError: boom" in lines
    assert sum(line.startswith("[PASS]") for line in lines) == 11
    assert lines[-1] == "result: 11/13 checks passed"
