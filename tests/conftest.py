"""Fixtures shared by the test modules."""

import numpy as np
import pytest


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
