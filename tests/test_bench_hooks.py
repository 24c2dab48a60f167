"""The traced benchmark run wraps program functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _spec_entries():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.SPEC]


@pytest.mark.parametrize("module, attr", _spec_entries())
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
