"""Spans around calls into dhym's modules, recorded from outside the package.

A traced run rebinds, inside each dhym submodule, every public function
that the submodule imports from another dhym submodule, so a call from
`suites` into `charge.check_chern_n4` opens a span labelled
`charge.check_chern_n4`.  The benchmark's own calls into dhym are wrapped
the same way.  Nothing under `src/` changes, and the original bindings are
restored when the traced pass ends.  Spans are kept in memory as
(label, start, end, parent index, operation id).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter


def imported_bindings(package):
    """(module, name, function) for each cross-module public import."""
    prefix = package.__name__ + "."
    out = []
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(prefix + info.name)
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__.startswith(prefix)
                and obj.__module__ != mod.__name__
            ):
                out.append((mod, name, obj))
    return out


def layer_of(label: str) -> str:
    return label.split(".", 1)[0]


class Tracer:
    """Records nested spans; `op` is the id stamped on each new span."""

    def __init__(self, package):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._bindings = [
            (mod, name, fn, self.wrap(fn)) for mod, name, fn in imported_bindings(package)
        ]

    def wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op)

        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the cross-module imports to their traced wrappers."""
        for mod, name, _, traced in self._bindings:
            setattr(mod, name, traced)
        try:
            yield
        finally:
            for mod, name, fn, _ in self._bindings:
                setattr(mod, name, fn)


class SpanTotals:
    """Calls, self time and inclusive time per label for a list of spans.

    Self time is a span's duration minus the durations of its children;
    `root_s` sums the inclusive time of spans opened by the benchmark
    itself (no parent).
    """

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for label, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.root_s: defaultdict = defaultdict(float)
        for i, (label, start, end, parent, _) in enumerate(spans):
            self.calls[label] += 1
            self.self_s[label] += end - start - child[i]
            self.total_s[label] += end - start
            if parent < 0:
                self.root_s[layer_of(label)] += end - start

    def layer_calls(self, layer):
        return sum(n for label, n in self.calls.items() if layer_of(label) == layer)

    def layer_self(self, layer):
        return sum(s for label, s in self.self_s.items() if layer_of(label) == layer)

    def labels_calls(self, *labels):
        return sum(self.calls[label] for label in labels)

    def labels_self(self, *labels):
        return sum(self.self_s[label] for label in labels)

    def labels_total(self, *labels):
        return sum(self.total_s[label] for label in labels)
