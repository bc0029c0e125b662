"""Span tracing from outside the program.

Wraps every public function of every loaded ``kgyukawa`` module at each
module attribute that names it (``kgyukawa.solver.solve_energy`` and
``kgyukawa.cli.solve_energy`` get the same wrapper), so calls made
through module globals are traced without editing the program.  A span
is (name, start, end, parent index); spans stay in memory until written
out.  Self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types

PACKAGE = "kgyukawa"


def span_name(fn) -> str:
    """'solver.solve_energy' for kgyukawa.solver.solve_energy."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions():
    """Every public function defined in a loaded kgyukawa module, by span name."""
    found = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__.startswith(PACKAGE + ".")
                    and value.__name__ == attr):
                found[span_name(value)] = value
    return found


class Tracer:
    """Records spans and per-function totals while installed."""

    def __init__(self, observers=None):
        # observers: span name -> predicate on the call's result; the calls
        # whose result it accepts are counted in accepted[name]
        self.observers = dict(observers or {})
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.accepted: dict[str, int] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                child = self._child.pop()
                duration = end - start
                if self._child:
                    self._child[-1] += duration
                self.spans[index] = (name, start, end, parent)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
                self.busy[name] = self.busy.get(name, 0.0) + duration
            if observe is not None and observe(result):
                self.accepted[name] = self.accepted.get(name, 0) + 1
            return result

        return traced

    def install(self):
        """Replace each public function by its wrapper at every attribute."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions().items()}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def per_call_counts(self, name: str, outer: str) -> list[int]:
        """For each span called `outer`, how many `name` spans lie below it."""
        outer_ids = [i for i, s in enumerate(self.spans) if s[0] == outer]
        counts = dict.fromkeys(outer_ids, 0)
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if parent in counts:
                    counts[parent] += 1
                    break
                parent = self.spans[parent][3]
        return [counts[i] for i in outer_ids]

    def write(self, path, meta: dict):
        """Write spans as [name, start, end, parent] rows plus `meta`."""
        payload = dict(meta, spans=[list(s) for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
