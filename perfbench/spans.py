"""Span recording around the public functions of urtetrad.

Wrappers are installed from the benchmark's side by replacing module and
class attributes, so the package itself carries no tracing code.  Calls
inside the package go through module globals, which the replacement
covers.  Spans stay in memory until they are folded into per-name
totals; self time is a span's duration minus the part of it its direct
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path, metric name) for every traced public function
# the workloads reach; tetrad, verify and cli are not loaded (see load.py)
TARGETS = (
    ("urtetrad.spinor", "from_quaternion", "spinor.from_quaternion"),
    ("urtetrad.spinor", "to_quaternion", "spinor.to_quaternion"),
    ("urtetrad.spinor", "dyad_from_element", "spinor.dyad_from_element"),
    ("urtetrad.spinor", "contract", "spinor.contract"),
    ("urtetrad.fock", "FockSpace.__init__", "fock.FockSpace.init"),
    ("urtetrad.fock", "FockSpace.annihilator", "fock.FockSpace.annihilator"),
    ("urtetrad.fock", "FockSpace.tau", "fock.FockSpace.tau"),
    ("urtetrad.fock", "tetrad_component", "fock.tetrad_component"),
    ("urtetrad.fock", "operator_tetrad", "fock.operator_tetrad"),
    ("urtetrad.fock", "coherent_state", "fock.coherent_state"),
    ("urtetrad.fock", "expectation", "fock.expectation"),
)
NAMES = tuple(name for _, _, name in TARGETS)


class Tracer:
    """Records (name, parent, start, end) for every wrapped call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._totals = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target that the imported package defines."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self):
        """{name: {"calls": n, "self_s": seconds}} over all spans so far.

        Closed spans are folded into the totals and dropped, so a long run
        keeps one entry per name; call it only between operations.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end), covered in zip(self.spans, child_time):
            entry = self._totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        self.spans.clear()
        return self._totals
