"""The benchmark's view of qsetalg stays whole: every entry point its tracer
wraps still exists, and every job of each workload's tiny deck passes its own
check, so a rename or a changed behaviour that bench/ reaches fails here
rather than in a benchmark run."""

import importlib
import os
import random
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracing import ENTRIES  # noqa: E402


@pytest.mark.parametrize("name, module, owner, attr", ENTRIES, ids=[entry[0] for entry in ENTRIES])
def test_traced_entry_resolves(name, module, owner, attr):
    mod = importlib.import_module(module)
    if owner is None:
        assert callable(getattr(mod, attr, None)), f"{name}: {module}.{attr} is gone"
    else:
        # the tracer replaces the attribute found in the class's own __dict__
        assert attr in vars(getattr(mod, owner)), f"{name}: {module}.{owner}.{attr} is gone"


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_deck_jobs_pass_their_checks(name, tmp_path):
    """Each job of the workload's tiny deck, called and checked in this
    process, untimed. The cli deck also plays one `palev normal-order` call
    (spin21 at this seed), the only route into NCPolynomial with sympy
    coefficients, QiHbar._sympy_ and palev.evaluate_nc."""
    _, workload = run.make_workload(name, 1, str(tmp_path), tiny=True)
    jobs = workload.deck(0)
    if name == "cli":
        jobs.append(workload.palev_normal_order(random.Random(0)))
    assert jobs
    for job in jobs:
        job.check(job.call())
