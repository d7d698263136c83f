"""The benchmark's tracer wraps package functions by name and skips any name
it cannot find, so a renamed function would read as zero calls.  Every
target it lists must exist where the tracer looks for it.

The benchmark's own tests break a copy of the package by replacing source
text; text no longer in the package would leave such a test checking an
unbroken copy, so every text they replace must still be there."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
RUN_TESTS = ROOT / "perfbench" / "tests" / "test_run.py"


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


def _replaced_texts():
    """(file name, old text) of every _replace(pkg / name, old, new) call."""
    found = []
    for node in ast.walk(ast.parse(RUN_TESTS.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_replace":
            path, old = node.args[:2]
            found.append((ast.literal_eval(path.right), ast.literal_eval(old)))
    return found


def test_the_benchmark_tests_replace_package_text():
    assert len(_replaced_texts()) >= 2


@pytest.mark.parametrize("file_name, old", _replaced_texts())
def test_text_the_benchmark_tests_replace_is_in_the_package(file_name, old):
    assert old in (ROOT / "src" / "urtetrad" / file_name).read_text()
