"""Call tracing for the benchmark: wraps public functions of the coalign
modules at every name a caller looks them up by, keeps one span (name,
start, end, parent) per call in memory, and reduces the spans of a pass to
per-layer busy time, self time and counts.

Nothing here changes coalign itself: wrappers replace module attributes
while a pass runs and the originals are put back afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from types import ModuleType
from typing import Callable

import numpy as np

PACKAGE = "coalign"


def package_modules() -> dict[str, ModuleType]:
    """Loaded coalign modules keyed by short name ('' is the package)."""
    out = {}
    for full, mod in list(sys.modules.items()):
        if mod is not None and (full == PACKAGE or full.startswith(PACKAGE + ".")):
            out[full[len(PACKAGE) + 1:]] = mod
    return out


def patch(modules, replacements: dict) -> list:
    """Point every module-level name bound to a key of ``replacements`` at
    its value; ``from x import f`` copies are found by identity. Returns the
    undo list for :func:`unpatch`."""
    undo = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, name, replacements[value])
                undo.append((mod, name, value))
    return undo


def unpatch(undo: list) -> None:
    for mod, name, value in reversed(undo):
        setattr(mod, name, value)


def public_functions(modules: dict[str, ModuleType]) -> dict[str, Callable]:
    """'module.name' -> function for every public function a module defines
    (aliases such as kernels.softmax count under their public name)."""
    found = {}
    for short, mod in modules.items():
        if not short:
            continue
        for name, value in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                found[f"{short}.{name}"] = value
    return found


class Tracer:
    """Span recorder. ``hooks`` maps a span name to ``hook(counters, args,
    result)``, run inside the span after the call returns, for counts that
    are derived from argument and result shapes."""

    def __init__(self, hooks: dict | None = None, clock: Callable[[], float] = time.perf_counter):
        self.hooks = hooks or {}
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def reset(self) -> None:
        for col in (self.span_name, self.parent, self.start, self.end):
            del col[:]
        self.counters.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack, clock, counters, hook = self._stack, self.clock, self.counters, self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict[str, ModuleType]) -> list:
        """Wrap every public function of ``modules``; returns the undo list."""
        wrappers = {fn: self.wrap(name, fn) for name, fn in public_functions(modules).items()}
        return patch(modules.values(), wrappers)

    def write(self, path) -> None:
        """Spans as CSV rows: name, start, end, parent index (-1 at top level)."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for nid, s, e, p in zip(self.span_name, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]},{s!r},{e!r},{p}\n")

    def summarize(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name and per-group reductions of one pass of spans.

    busy time of a group is the time covered by its outermost spans, so a
    member called from another member is not counted twice; self time is a
    span's duration minus the durations of its direct child spans.
    """

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.counters = dict(tracer.counters)
        self.name = np.array(tracer.span_name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.dur = np.array(tracer.end) - np.array(tracer.start)
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested], minlength=len(self.dur))
        self.self_time = self.dur - child

    def _members(self, names) -> np.ndarray:
        return np.isin(self.name, [i for i, n in enumerate(self.names) if n in names])

    def calls(self, *names: str) -> int:
        return int(self._members(names).sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self._members(names)].sum())

    def busy_s(self, *names: str) -> float:
        member = self._members(names)
        covered = np.zeros_like(member)
        anc = self.parent.copy()
        while (live := anc >= 0).any():
            covered[live] |= member[anc[live]]
            anc[live] = self.parent[anc[live]]
        return float(self.dur[member & ~covered].sum())

    def prefixed(self, prefix: str) -> list[str]:
        return [n for n in self.names if n.startswith(prefix)]
