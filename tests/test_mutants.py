"""The bound mutants of tests/mutants.py stay current: each old text occurs
exactly once in its source file and each names an existing test file.
Running the mutants themselves is opt-in: python tests/mutants.py."""

import os

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_exactly_once(mutant):
    with open(os.path.join(SRC, mutant.file), encoding="utf-8") as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert os.path.isfile(os.path.join(ROOT, "tests", mutant.test))


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
