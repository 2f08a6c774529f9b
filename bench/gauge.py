"""Machine speed over a run, read off a fixed reference kernel.

The 2-vCPU sandbox this benchmark was written on shares its host, and its
CPU speed drifts by up to 2x, flipping between a fast and a slow state
several times a second and drifting over minutes: a fixed job's wall time
over 25 s windows spread by 34% (quartile distance over median), far past
any useful bound. The time of a job divided by the time of a fixed
reference kernel run next to it drifts far less (3% over the same windows),
because both slow down together.

So every run times a reference kernel between jobs and reports a job's time
at nominal speed:

    ms = raw_ms * nominal_ms / (mean kernel time of the `nearest` samples
                                closest in time to the job)

There are two kernels, each matched to the work it scales:

- "cpu": exact-fraction and dict work in this process, about 16 ms, sampled
  about every 0.5 s; for jobs that run in this process (frames,
  small-exact).
- "spawn": a fresh interpreter that imports a few standard modules, about
  100 ms, sampled before every job and averaged over 15 samples; for jobs
  and probes that start an interpreter (cli, set-up times). Start-up speed
  does not follow the in-process kernel: across cli runs the in-process
  kernel's time moved twice as much as the cli jobs', the spawn kernel's as
  much. Single spawn samples are too noisy to follow one cli job, so this
  kernel corrects the drift between runs, not the flips within one.

The nominal times are the kernels' median times on that sandbox, so the
figures read about like wall times there. The kernels use only the
standard library, never qsetalg, and the cpu kernel runs with the garbage
collector off, so nothing qsetalg does (its code, its imports, the size of
its heap) changes their time: a change to qsetalg moves the scaled figures
by exactly its own cost. The raw wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import subprocess
import sys
import time
from fractions import Fraction

SPAWN_ARGV = (sys.executable, "-c", "import decimal, email.parser, fractions, json")


def cpu_kernel() -> None:
    """Fixed interpreter work of the kind qsetalg does: exact fractions,
    small dicts and tuples."""
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 5000):
        total += Fraction(1 + i % 5, i % 97 + 1)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i


def spawn_kernel() -> None:
    subprocess.run(SPAWN_ARGV, check=True, stdin=subprocess.DEVNULL, timeout=60)


# kind: (kernel, nominal ms, seconds between samples, samples averaged)
KINDS = {
    "cpu": (cpu_kernel, 16.0, 0.5, 5),
    "spawn": (spawn_kernel, 100.0, 0.0, 15),
}


class SpeedGauge:
    def __init__(self, kind: str = "cpu"):
        self.kernel, self.nominal_ms, self.every_s, self.nearest = KINDS[kind]
        self.times: list = []    # perf_counter at the middle of each sample
        self.ms: list = []       # the kernel's wall time, ms
        self.kernel()            # warm-up, not recorded

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.ms.append((end - start) * 1e3)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.every_s

    def scale(self, t: float) -> float:
        """nominal_ms over the mean kernel time of the `nearest` samples
        closest to perf_counter time t. The mean follows the share of time
        spent in the fast and the slow state; a median would snap to one."""
        times = self.times
        lo = hi = bisect.bisect_left(times, t)
        while hi - lo < self.nearest and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi == len(times) or t - times[lo - 1] <= times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return self.nominal_ms * (hi - lo) / sum(self.ms[lo:hi])
