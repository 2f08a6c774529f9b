#!/usr/bin/env python3
"""Mutants of the stated int64 bounds, as data, and an opt-in runner.

Each int64 route in src/qsetalg states a bound and falls back to Python ints
past it. Each mutant below changes one such bound (or the comparison against
it) and names the test file that must fail under it: a mutant that passes
its test file shows a bound no test trips.

    python tests/mutants.py [NAME ...]

runs every mutant, or the ones named. Each runs in its own temporary copy of
src/, tests/ and pyproject.toml: the old text is replaced by the new one
there, and pytest runs the mutant's test file against that copy. One line
per mutant says whether it was killed; the exit code is 1 unless all were.
Pytest does not collect this file. tests/test_mutants.py checks, in Tier-1,
only that each old text still occurs exactly once in its file, so the list
cannot go stale unseen.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qsetalg")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qsetalg
    old: str  # occurs exactly once in file
    new: str
    test: str  # under tests/


MUTANTS = (
    Mutant(
        "linalg.cast-limit-2^64", "linalg.py",
        "np.int64 if bound < _LIMIT else object", "np.int64 if bound < 1 << 64 else object",
        "test_linalg.py",
    ),
    Mutant(
        "linalg.cast-le", "linalg.py",
        "np.int64 if bound < _LIMIT else object", "np.int64 if bound <= _LIMIT else object",
        "test_linalg.py",
    ),
    Mutant("linalg._LIMIT-2^63", "linalg.py", "_LIMIT = 1 << 62", "_LIMIT = 1 << 63", "test_linalg.py"),
    Mutant("linalg._EXACT-2^60", "linalg.py", "_EXACT = 1 << 53", "_EXACT = 1 << 60", "test_linalg.py"),
    Mutant(
        "linalg.int_matmul-no-k", "linalg.py",
        "bound = max(a.shape[-1], 1) * max(peak(a), 1) * max(peak(b), 1)",
        "bound = max(peak(a), 1) * max(peak(b), 1)",
        "test_linalg.py",
    ),
    Mutant(
        "linalg.int_matmul-le", "linalg.py",
        "if bound < _EXACT else cast(a, bound)", "if bound <= _EXACT else cast(a, bound)",
        "test_linalg.py",
    ),
    Mutant(
        "linalg.int_combine-max", "linalg.py",
        "bound = sum(max(abs(c), 1) * max(peak(a), 1) for c, a in terms)",
        "bound = max(max(abs(c), 1) * max(peak(a), 1) for c, a in terms)",
        "test_linalg.py",
    ),
    Mutant(
        "linalg.solve-norm-no-rows", "linalg.py",
        "self.den * len(b) * max(peak(b), 1) ** 2", "self.den * max(peak(b), 1) ** 2",
        "test_linalg.py",
    ),
    Mutant(
        "linalg.solve-dot-no-k", "linalg.py",
        "len(y) * max(peak(y), 1) * max(peak(x), 1)", "max(peak(y), 1) * max(peak(x), 1)",
        "test_linalg.py",
    ),
    Mutant(
        "liecore.commutators-no-2", "liecore.py",
        "bound = 2 * d * max(linalg.peak(self.stack), 1) ** 2", "bound = d * max(linalg.peak(self.stack), 1) ** 2",
        "test_liecore.py",
    ),
    Mutant(
        "liecore.jacobi-no-3", "liecore.py",
        "bound = 3 * n * max(linalg.peak(self.C), 1) ** 2", "bound = n * max(linalg.peak(self.C), 1) ** 2",
        "test_liecore.py",
    ),
    Mutant("vertexnet._INT64-2^70", "vertexnet.py", "_INT64 = 1 << 63", "_INT64 = 1 << 70", "test_vertexnet.py"),
    Mutant(
        "vertexnet._to_dense-le", "vertexnet.py",
        "arr.max(initial=0) < _INT64", "arr.max(initial=0) <= _INT64",
        "test_vertexnet.py",
    ),
    Mutant(
        "cliff._products-bound-2", "cliff.py",
        "cast(self.sign, 2 * self._peak ** 2 + 2)", "cast(self.sign, 2)",
        "test_cliff.py",
    ),
    Mutant(
        "cliff._top-peak", "cliff.py",
        "cast(self.sign, self._peak ** (2 * len(self.sign)))", "cast(self.sign, self._peak)",
        "test_cliff.py",
    ),
    Mutant(
        "liecore.at-no-factor", "liecore.py",
        "bound = linalg.peak(C) * linalg.peak(factor)", "bound = linalg.peak(C)",
        "test_liecore.py",
    ),
)


def run(mutant: Mutant) -> str:
    """Apply one mutant to a temporary copy and run its test file; returns
    'killed', 'SURVIVED' or 'NOT RUN', with pytest's exit code and summary."""
    with tempfile.TemporaryDirectory(prefix="qsetalg-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, "src", "qsetalg", mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text does not occur exactly once in {mutant.file}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", os.path.join("tests", mutant.test)],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    lines = [ln for ln in done.stdout.splitlines() if re.search(r"\d+ (passed|failed|error)", ln)]
    summary = f"pytest exit {done.returncode}: {lines[-1].strip('= ') if lines else 'no summary'}"
    # 1: a test failed, 2: collection failed; 0 means every test passed,
    # and 3 (pytest's internal error), 4 or 5 that the tests did not all run
    verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(done.returncode, "NOT RUN")
    return f"{verdict} ({summary})"


def main(names) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown mutant(s): {', '.join(unknown)}; available: {', '.join(known)}")
    all_killed = True
    for mutant in [known[n] for n in names] if names else MUTANTS:
        outcome = run(mutant)
        all_killed = all_killed and outcome.startswith("killed")
        print(f"{mutant.name}: {outcome}", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
