"""The benchmark's tracer wraps arcjet functions by name; every name it
lists must still exist, or a traced benchmark run fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS + tracer.COUNTERS


@pytest.mark.parametrize("module,qualname", traced_names(), ids=lambda x: x)
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"arcjet.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
