"""The benchmark's tracer wraps package functions by name and skips any name
it cannot find, so a renamed function would read as zero calls.  Every
target it lists must exist where the tracer looks for it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module_name, path, name", _targets())
def test_trace_target_defined(module_name, path, name):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer reads the owner's own __dict__, so an inherited attribute
    # would be skipped too
    assert callable(owner.__dict__.get(attr)), f"{module_name}.{path} ({name})"
