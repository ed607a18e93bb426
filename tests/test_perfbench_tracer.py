"""Every function the benchmark's tracer wraps exists in the package.

A rename or deletion of a traced function would otherwise pass the
unit tests and only fail ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, _ in tracer.ENTRY_POINTS]


@pytest.mark.parametrize("module, name", _entry_points())
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
