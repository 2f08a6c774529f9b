import pytest

from qsetalg.verify import RunConfig, check_names, run_all


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
    from qsetalg import scalars, verify

    assert verify.RunConfig is scalars.RunConfig
