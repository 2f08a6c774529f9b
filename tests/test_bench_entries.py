"""Every entry point the benchmark's tracer wraps still exists in qsetalg, so
a rename cannot silently leave a traced run without that layer."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def _entries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRIES


ENTRIES = _entries()


@pytest.mark.parametrize("name, module, owner, attr", ENTRIES, ids=[entry[0] for entry in ENTRIES])
def test_traced_entry_resolves(name, module, owner, attr):
    mod = importlib.import_module(module)
    if owner is None:
        assert callable(getattr(mod, attr, None)), f"{name}: {module}.{attr} is gone"
    else:
        # the tracer replaces the attribute found in the class's own __dict__
        assert attr in vars(getattr(mod, owner)), f"{name}: {module}.{owner}.{attr} is gone"
