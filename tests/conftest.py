"""Fixtures shared by the test modules."""

import numpy as np
import pytest
from hypothesis import settings

# One profile for every property test: derandomized, so each run draws the
# same examples and Tier-1 stays deterministic, and no per-example deadline,
# since exact arithmetic on large entries is slow on purpose. Each test sets
# only its own max_examples.
settings.register_profile("qsetalg", derandomize=True, deadline=None)
settings.load_profile("qsetalg")


@pytest.fixture
def numpy_dtypes(monkeypatch):
    """Record the operand dtypes of every np.einsum and np.matmul call, per
    function: {"einsum": [...], "matmul": [...]}, one list of dtypes a call."""
    seen = {"einsum": [], "matmul": []}

    def spy(name):
        real = getattr(np, name)

        def call(*args, **kwargs):
            # array operands only: einsum's subscripts are a string or lists
            seen[name].append([op.dtype for op in args if isinstance(op, np.ndarray)])
            return real(*args, **kwargs)

        return call

    for name in seen:
        monkeypatch.setattr(np, name, spy(name))
    return seen
