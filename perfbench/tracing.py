"""Spans around the public functions of compound_kit's computational layers.

:func:`install` wraps every public function defined in ``recovery``,
``exterior``, ``numerics`` and ``combinat`` and rebinds the wrapper in every
loaded ``compound_kit`` module that binds the original, so internal calls
such as ``recovery.compound`` are traced as well as ``exterior.compound``.
The program itself is not modified.

Each call records a span (name, parent span, start, end) in memory for the
current operation.  :meth:`Tracer.end_op` folds the operation's spans into
per-function totals outside the timed region: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("recovery", "exterior", "numerics", "combinat")


def _compound_counters(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    stack_mib = result.size * k * k * 8 / 2**20 if k > 1 else 0.0
    return {"minors": result.size, "stack_mb": stack_mib}


#: Counters read off a call's arguments and result.
_COUNTERS = {
    "exterior.compound": _compound_counters,
    "exterior.wedge_matrix": lambda a, kw, res: {"entries": res.data.size},
    "numerics.subspace_intersection": lambda a, kw, res: {"useful": int(res.shape[1] > 0)},
    "recovery.preprocess_distinct": lambda a, kw, res: {"used": int(res.used)},
}
#: Counters computed from shapes, not measured: the minors the output holds,
#: the (rows, cols, k, k) float64 block stack an unchunked batched
#: determinant builds for it, and the entries of the wedge matrix.
COMPUTED = {"exterior.compound.minors", "exterior.compound.stack_mb", "exterior.wedge_matrix.entries"}
#: Counters kept as a maximum over calls rather than a sum.
_PEAK_COUNTERS = {"stack_mb"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end] of the current operation
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.children = defaultdict(int)  # (parent name, child name) -> calls
        self.op_s = 0.0

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                span.append(counter(args, kwargs, result))
            return result

        return traced

    def begin_op(self) -> None:
        """Drop spans recorded outside an operation, such as by its check."""
        self.spans.clear()

    def end_op(self, op_s: float) -> None:
        """Fold the finished operation's spans into the totals and drop them."""
        self.op_s += op_s
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, *extra in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                self.children[self.spans[parent][0], name] += 1
        for index, (name, parent, start, end, *extra) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - child_s[index]
            if not self._has_ancestor(index, name):
                self.inclusive_s[name] += end - start
            for key, value in (extra[0].items() if extra else ()):
                full = f"{name}.{key}"
                if key in _PEAK_COUNTERS:
                    self.counters[full] = max(self.counters[full], value)
                else:
                    self.counters[full] += value
        self.spans.clear()

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False


def install(tracer: Tracer) -> None:
    """Replace each public layer function by its traced wrapper everywhere it is bound."""
    wrapped = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"compound_kit.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name != "compound_kit" and not name.startswith("compound_kit."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
