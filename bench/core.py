"""Jobs, the closed-loop runner and the statistics every workload shares.

A workload is a sequence of decks. A deck is a fixed mix of job classes whose
inputs are drawn from the seed, so every deck does the same kind and amount
of work and a run's figures do not hinge on which seed it got. A run plays a
fixed number of whole decks, one job at a time.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from gauge import SpeedGauge
from oracles import Mismatch


@dataclass(frozen=True)
class Defect:
    """A known defect of the program and the exact way it shows.

    A failure is explained by the defect only when it matches: an exception
    of type `raises[0]` whose traceback passes through the function named
    `raises[1]`, or a returned result for which `wrong(result)` holds. Any
    other failure of the same job is unexpected."""

    label: str
    raises: tuple | None = None                   # (exception type, function name)
    wrong: Callable[[Any], bool] | None = None    # the observed wrong result

    def explains(self, exc: BaseException | None, result) -> bool:
        if exc is not None:
            if self.raises is None:
                return False
            kind, where = self.raises
            frames = traceback.extract_tb(exc.__traceback__)
            return isinstance(exc, kind) and any(f.name == where for f in frames)
        return self.wrong is not None and bool(self.wrong(result))


@dataclass
class Job:
    cls: str                          # job class, e.g. "frames.jacobi"
    params: tuple                     # the generated inputs, for identity
    call: Callable[[], Any]           # the timed call into qsetalg
    check: Callable[[Any], None]      # raises Mismatch on a wrong result
    known_defect: Defect | None = None  # set when the input hits a known defect


@dataclass
class Outcome:
    job_id: int
    cls: str
    params: tuple           # or its repr, when the job ran in another process
    ms: float
    ok: bool
    expected: bool          # a failure that matches the job's known defect
    detail: str
    digest: str
    raw_ms: float = 0.0     # wall time; ms is this at the gauge's nominal speed


@dataclass
class RunResult:
    outcomes: list = field(default_factory=list)
    decks: int = 0
    job_seconds: float = 0.0        # sum of the jobs' ms, in seconds
    gauge: SpeedGauge | None = None

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def unexpected(self) -> list:
        return [o for o in self.outcomes if not o.ok and not o.expected]


def deck_rng(workload: str, seed: int, deck: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{deck}")


def canon(x) -> str:
    """Stable text of a result, for digests."""
    if isinstance(x, np.ndarray):
        return f"nd{x.shape}{x.tolist()}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if hasattr(x, "c") and hasattr(x, "labels"):          # StructureConstants
        return "sc" + canon(x.c)
    if hasattr(x, "items") and callable(x.items):          # Multivector
        return "mv" + canon([(lab.code, c) for lab, c in x.items()])
    if hasattr(x, "items_sorted"):                         # NCPolynomial
        return "nc" + str(x)
    return repr(x)


def digest(x) -> str:
    return hashlib.sha256(canon(x).encode()).hexdigest()[:16]


def _traced(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.record(name, fn, *args)


def run_job(job: Job, job_id: int, tracer=None) -> Outcome:
    """Time job.call(), then check its result outside the timed region.

    A raised exception, a wrong result and a check that cannot read the
    result all fail the job. A failure is expected only when the job's
    known defect explains it."""
    if tracer is not None:
        tracer.job_id = job_id
    result = exc = None
    ok, detail = True, ""
    start = time.perf_counter()
    try:
        result = _traced(tracer, "job", job.call)
    except Exception as e:  # a crash in qsetalg is a failed job, not a crashed benchmark
        exc = e
        ok, detail = False, f"{type(e).__name__}: {e}"
    ms = (time.perf_counter() - start) * 1e3
    if ok:
        try:
            _traced(tracer, "check", job.check, result)
        except Mismatch as e:
            ok, detail = False, f"wrong result: {e}"
        except Exception as e:
            ok, detail = False, f"unreadable result: {type(e).__name__}: {e}"
    expected = not ok and job.known_defect is not None and job.known_defect.explains(exc, result)
    return Outcome(job_id, job.cls, job.params, ms, ok, expected, detail, digest(result))


def deck_count(seconds: float, deck_seconds: float) -> int:
    """Decks a run plays: as many as fill `seconds` at the workload's nominal
    deck time, at least one. The count does not depend on how fast the
    machine or the code runs, so both sides of a comparison do the same work
    and their tail reads the same percentile."""
    return max(1, round(seconds / deck_seconds))


def run_decks(make_deck, decks: int, tracer=None, gauge: SpeedGauge | None = None) -> RunResult:
    """Play `decks` whole decks, sampling the speed gauge between jobs, and
    scale each job's time to the gauge's nominal speed."""
    gauge = gauge or SpeedGauge()
    res = RunResult(decks=decks, gauge=gauge)
    mids = []
    job_id = 0
    for index in range(decks):
        for job in make_deck(index):
            if gauge.due():
                gauge.sample()
            start = time.perf_counter()
            out = run_job(job, job_id, tracer)
            mids.append(start + out.ms / 2e3)
            res.outcomes.append(out)
            job_id += 1
    gauge.sample()
    for out, mid in zip(res.outcomes, mids):
        out.raw_ms = out.ms
        out.ms = out.raw_ms * gauge.scale(mid)
    res.job_seconds = sum(o.ms for o in res.outcomes) / 1e3
    return res


# ---------------------------------------------------------------------------
# statistics


def median(values):
    s = sorted(values)
    n = len(s)
    return (s[(n - 1) // 2] + s[n // 2]) / 2


def tail(values):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value, at percentile 100 * (n - 10) / n. With ten or fewer
    samples there is no such percentile; the maximum is returned at 100."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n
