"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def einsum_dtypes(monkeypatch):
    """Record the operand dtypes of every np.einsum call."""
    seen = []
    real = np.einsum

    def spy(spec, *ops, **kwargs):
        seen.append([op.dtype for op in ops])
        return real(spec, *ops, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return seen
