"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def einsum_dtypes(monkeypatch):
    """Record the operand dtypes of every np.einsum and np.matmul call."""
    seen = []

    def spy(real, skip):
        """real, recording the dtypes of its operands: args after `skip`."""

        def call(*args, **kwargs):
            seen.append([op.dtype for op in args[skip:]])
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(np, "einsum", spy(np.einsum, 1))  # after the spec
    monkeypatch.setattr(np, "matmul", spy(np.matmul, 0))
    return seen
