"""The benchmark's tracer wraps functions of the package by name; a rename
under src/ must not silently drop a span."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module_name, cls_name, attr", [entry[:3] for entry in _traced()])
def test_every_traced_name_resolves(module_name, cls_name, attr):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        # the tracer patches the class's own attribute, not an inherited one
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
