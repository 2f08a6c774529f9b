#!/usr/bin/env python3
"""Mutants of the size limits, fast paths and closed forms, as data, and an
opt-in runner.

A point permutation is a bytes table only while its 2d points fit in 256;
the trace form reads coordinates only off a diagonal Gram matrix; a network
merge buckets b's entries by the indices it shares with a, a vertex's
self-trace keeps only the entries whose positions of one wire agree, and a
contraction's result is int64 only where every entry fits; the planner
drops a heap entry unless both its tensors are live; the float refit
scatters the exact constants straight from the sparse table; and a
hyperbolic blade product is read off the 4x4 pair table, signed by moving
b's pairs past a's higher ones. Each mutant below changes one such limit,
condition, entry or sign (or the comparison against it, or the value read)
and names the test file that must fail under it: a mutant that passes its
test file shows a condition no test trips.

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
        "vertexnet._to_dense-le", "vertexnet.py",
        "max(vals, default=0) < 1 << 63", "max(vals, default=0) <= 1 << 63",
        "test_vertexnet.py",
    ),
    Mutant(
        "vertexnet._layout-bucket-key-from-kept", "vertexnet.py",
        "if shared else _getter(()) for sh in (a_sh, b_sh))", "if shared else _getter(()) for sh in (a_sh, b_keep))",
        "test_vertexnet.py",
    ),
    Mutant(
        "vertexnet._trace-repeated-leg-kept", "vertexnet.py",
        "if all(idx[i] == idx[j] for i, j in ties):", "if all(idx[i] == idx[i] for i, j in ties):",
        "test_vertexnet.py",
    ),
    Mutant("cliff._swap-bytes-512", "cliff.py", "    if 2 * d > 256:", "    if 2 * d > 512:", "test_cliff.py"),
    Mutant(
        "cliff._blocks-bytes-512", "cliff.py",
        "tuple(cols) if 2 * size > 256 else", "tuple(cols) if 2 * size > 512 else",
        "test_cliff.py",
    ),
    Mutant(
        "vertexnet._reduce-b-unchecked", "vertexnet.py",
        "if legs[a] is not None and legs[b] is not None:", "if legs[a] is not None:",
        "test_vertexnet.py",
    ),
    Mutant(
        "liecore.refit-sign-dropped", "liecore.py",
        "C / sc.D for (a, b), row in sc.table.items()", "abs(C) / sc.D for (a, b), row in sc.table.items()",
        "test_liecore.py",
    ),
    Mutant(
        "linalg.ColumnSolver-diagonal-unchecked", "linalg.py",
        "if all(row.count(0) == k - 1 for row in gram) and all(diag):", "if all(diag):",
        "test_liecore.py",
    ),
    Mutant("qset._PAIR-x(x^y)-sign", "qset.py", "((1, Fraction(-1, 2)),)", "((1, Fraction(1, 2)),)", "test_qset.py"),
    Mutant(
        "qset._graded-cross-sign-dropped", "qset.py",
        "sign = -1 if da.bit_count() * (b & (1 << shift) - 1).bit_count() & 1 else 1", "sign = 1",
        "test_qset.py",
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
