"""Spans around rayform's layer functions, installed from outside the package.

`install` replaces every binding site of each traced function (the defining
module and every rayform module that imported it by name) with a wrapper
that records one span per call.  Counts and self times are accumulated
exactly as calls return; the raw spans (name, start, end, parent, job) are
kept in memory up to a cap; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("qfield", "forms", "rayclass", "modular", "cli")

# private functions that carry a layer's cost and are named in the metrics
PRIVATE = {
    "rayclass": ("_class_index",),
    "modular": ("_wp_sum", "_eisenstein", "_reduce_tau", "_ctx"),
}

SPAN_CAP = 100_000


class Stat:
    __slots__ = ("calls", "total", "self_time", "hits")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0  # calls whose result was not None


class Recorder:
    """Span store for one process; frames on `stack` are [span id, child time]."""

    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.names: list[str] = []
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []
        self.next_id = 0
        self.job = 0
        self.dropped = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("q")

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        name_id = len(self.names)
        self.names.append(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self._keep(sid, name_id, start, end, parent)
            if result is not None:
                stat.hits += 1
            return result

        return traced

    def _keep(self, sid, name_id, start, end, parent):
        if len(self.span_id) >= self.cap:
            self.dropped += 1
            return
        self.span_id.append(sid)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_job.append(self.job)

    def summary(self) -> dict:
        return {
            name: [s.calls, s.total, s.self_time, s.hits]
            for name, s in self.stats.items()
        }

    def spans(self) -> list[list]:
        return [
            [
                self.span_id[k],
                self.names[self.span_name[k]],
                self.span_start[k],
                self.span_end[k],
                self.span_parent[k],
                self.span_job[k],
            ]
            for k in range(len(self.span_id))
        ]


def traced_functions() -> dict:
    """Map each traced function object to its span name `layer.function`."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"rayform.{layer}")
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            found[obj] = f"{layer}.{attr}"
    return found


def install(rec: Recorder) -> int:
    """Wrap every binding site of the traced functions; returns sites patched."""
    wrappers = {fn: rec.wrap(name, fn) for fn, name in traced_functions().items()}
    patched = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "rayform" or modname.startswith("rayform.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patched += 1
    return patched
