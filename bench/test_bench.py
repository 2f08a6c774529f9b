"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import os
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import jobs_cli  # noqa: E402
from core import Job, run_decks, run_job, tail  # noqa: E402
from gauge import SpeedGauge  # noqa: E402


def _deck_params(name, seed, index=0):
    _, workload = run.make_workload(name, seed, os.path.join(run.WORK, f"test-{name}-{seed}"))
    return [(job.cls, job.params, job.known_defect) for job in workload.deck(index)]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_jobs(name):
    assert _deck_params(name, 7) == _deck_params(name, 7)
    assert _deck_params(name, 7, 1) == _deck_params(name, 7, 1)
    assert _deck_params(name, 7) != _deck_params(name, 8)


def test_same_seed_same_result_digests():
    first = run.run_workload("small-exact", 3, 0, trace=False, tiny=True)
    second = run.run_workload("small-exact", 3, 0, trace=False, tiny=True)
    assert first["jobs"] == second["jobs"]
    assert len(first["jobs"]) > 10


def test_wrong_result_is_a_failure():
    _, workload = run.make_workload("small-exact", 1, "")
    wrong = workload.exclusion(5)
    wrong.call = lambda: (Fraction(120), Fraction(1))
    crash = workload.deviation(4, 1)
    crash.call = lambda: 1 / 0
    res = run_decks(lambda _: [wrong, crash, workload.exclusion(4)], 1)
    assert res.attempted == 3 and res.failed == 2
    assert {o.cls for o in res.unexpected} == {"palev.exclusion", "palev.deviation"}
    assert "wrong result" in res.outcomes[0].detail
    assert "ZeroDivisionError" in res.outcomes[1].detail


def test_known_defect_failure_is_expected_not_unexpected():
    _, workload = run.make_workload("small-exact", 1, "")
    job = workload.exclusion(21)
    assert job.known_defect is not None
    out = run_job(job, 0)
    if not out.ok:  # the defect of this commit; once fixed the job passes
        assert out.expected, out.detail
    wrong = Job("x", (), lambda: 1, lambda r: None)
    assert run_job(wrong, 1).ok


def test_known_defect_job_failing_another_way_is_unexpected():
    _, workload = run.make_workload("small-exact", 1, "")
    wrong = workload.exclusion(21)
    wrong.call = lambda: (Fraction(7), Fraction(0))          # a wrong value instead of the overflow
    other_error = workload.exclusion(22)
    other_error.call = lambda: int("overflow")                # another exception
    elsewhere = workload.exclusion(23)

    def overflow_outside_mmul():
        raise OverflowError("not from linalg.mmul")

    elsewhere.call = overflow_outside_mmul
    res = run_decks(lambda _: [wrong, other_error, elsewhere], 1)
    assert res.failed == 3
    assert len(res.unexpected) == 3


def test_known_defect_ring_signature():
    _, workload = run.make_workload("small-exact", 1, "")
    defect = next(job.known_defect for job in workload.deck(0) if job.known_defect and job.cls == "vertexnet.ring")
    zero = np.zeros((4, 4), dtype=np.int64)
    assert defect.explains(None, (None, zero, None))          # the silent 0 of the (3,1) ring
    assert not defect.explains(None, (None, zero + 3, None))  # any other wrong value


def test_known_defect_cli_signature():
    job = jobs_cli.Workload(os.path.dirname(BENCH), 1, os.path.join(run.WORK, "test-cli-defect")).palev_exclusion(21)
    mmul = 'Traceback (most recent call last):\n  File "linalg.py", line 80, in mmul\n    x\nOverflowError: too large\n'
    assert job.known_defect.explains(None, (1, "", mmul))
    assert not job.known_defect.explains(None, (2, "", "error: capacity too large\n"))
    assert not job.known_defect.explains(None, (0, "|adag^21| = 5\n", ""))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_run(name):
    rep = run.run_workload(name, 1, 0, trace=False, tiny=True)
    assert rep["attempted"] >= 2
    assert not rep["unexpected"], [o.detail for o in rep["unexpected"]]
    assert set(rep["e2e"]) == set(run.E2E_UNITS)


@pytest.mark.parametrize("name,entry", [("small-exact", "perfinite.decode"), ("frames", "yang.gauge_defect")])
def test_tiny_traced_run_reports_every_layer_metric(name, entry):
    rep = run.run_workload(name, 1, 0, trace=True, tiny=True)
    layers = rep["layers"]
    assert layers[f"{entry}.calls"][0] > 0
    assert layers["linalg.mmul.calls"][0] > 0
    assert all(value >= 0 for value, _ in layers.values())
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(layers) == names


def test_tail_is_the_eleventh_largest():
    values = list(range(100))
    assert tail(values) == (89, 90.0)
    assert tail([3, 1, 2]) == (3, 100.0)


def test_calls_inside_a_check_are_left_out():
    from tracing import Tracer

    tracer = Tracer()
    det = tracer._wrap("linalg.det", lambda: 1)
    tracer.record("job", det)
    tracer.record("check", det)
    assert tracer.layer_metrics()["linalg.det"][0] == 1


def test_gauge_averages_the_nearest_samples():
    gauge = SpeedGauge("cpu")
    gauge.times, gauge.ms = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0], [16.0, 16.0, 32.0, 32.0, 32.0, 8.0]
    assert gauge.scale(0.0) == pytest.approx(16.0 / 25.6)   # samples at 0-4
    assert gauge.scale(10.0) == pytest.approx(16.0 / 24.0)  # samples at 1-4 and 10


def test_job_times_are_scaled_by_the_gauge():
    gauge = SpeedGauge("cpu")

    def half_speed():
        gauge.times.append(time.perf_counter())
        gauge.ms.append(2 * gauge.nominal_ms)

    gauge.sample = half_speed
    jobs = [Job("x", (k,), lambda: sum(range(20000)), lambda r: None) for k in range(5)]
    res = run_decks(lambda _: jobs, 1, gauge=gauge)
    assert all(o.ms == pytest.approx(o.raw_ms / 2) for o in res.outcomes)
    assert res.job_seconds == pytest.approx(sum(o.ms for o in res.outcomes) / 1e3)
