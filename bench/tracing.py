"""Span tracing of the euleradic modules, installed from outside the package.

The package binds names across modules with ``from .x import y``, so one
function object can sit in several module namespaces (``validate`` lives in
``paths``, ``goodpaths``, ``encoding``, ``adic`` and the package itself).
``Tracer.install`` wraps every public function defined in a layer module and
puts the wrapper on every namespace that holds the original; ``uninstall``
puts the originals back.  No library file is touched.

Each call becomes a span: name ``<layer>.<function>``, start, end, the job id
and the parent span.  When a wrapped function returns a generator, the call
span covers only the call, and every later ``next()`` is a span of its own
under the same name.  Self time (a span's duration minus its children's) and
counters are aggregated as spans close, so they cover every call; the raw
spans are kept in memory up to a cap and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("eulerian", "ratios", "paths", "goodpaths", "encoding", "adic", "cli")

#: Raw spans kept in memory; aggregates are exact past the cap.
SPAN_CAP = 50_000


class Stat:
    """Aggregates for one function: calls, total and self seconds, and
    items yielded when it returned a generator."""

    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0


def _package_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "euleradic" or name.startswith("euleradic."))]


def namespace_snapshot() -> dict:
    """Identity of every attribute of every package namespace, to show that
    uninstall put everything back."""
    return {(ns.__name__, attr): id(obj) for ns in _package_namespaces()
            for attr, obj in vars(ns).items()}


def _max_bits(result) -> int:
    if isinstance(result, int):
        return result.bit_length()
    cells = getattr(result, "cells", None)
    if cells:
        # Counts grow along both axes, so the far corner is the largest cell.
        return cells[-1][-1].bit_length()
    return 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.max_bits = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.job_id = None
        self.root = Stat()
        self._stack: list[list] = []
        self._next_id = 1
        self._installed: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _open(self) -> list:
        # frame: [span id, parent span id, start, seconds covered by children]
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list, name: str, stat: Stat) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        stat.total_s += duration
        stat.self_s += duration - frame[3]
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], frame[1], self.job_id, name, frame[2], end))
        else:
            self.spans_dropped += 1
        return duration

    def job(self, job_id, fn, *args):
        """Run fn(*args) as job `job_id` under a root span; returns
        (result, seconds).  Root self time is time inside the job that no
        layer span covers."""
        self.job_id = job_id
        frame = self._open()
        try:
            result = fn(*args)
        finally:
            self.root.calls += 1
            duration = self._close(frame, "bench.job", self.root)
            self.job_id = None
        return result, duration

    # ------------------------------------------------------------ wrappers

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _after(self, name: str, args, kwargs, result) -> None:
        # Work counters read from arguments and results, outside the span.
        if name.startswith("eulerian."):
            self.max_bits = max(self.max_bits, _max_bits(result))
        if name == "eulerian.closed_form":
            off = args[1] if len(args) > 1 else kwargs["off"]
            self._count("eulerian.closed_form.terms", off[0] + 1)
        elif name == "eulerian.recurrence_table":
            imax, jmax = (args[1], args[2]) if len(args) > 2 else (kwargs["imax"], kwargs["jmax"])
            self._count("eulerian.recurrence_table.cells", (imax + 1) * (jmax + 1))
        elif name == "goodpaths.is_good":
            self._count("goodpaths.is_good.good", int(result[0]))

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.calls += 1
                tracer._close(frame, name, stat)
            tracer._after(name, args, kwargs, result)
            if inspect.isgenerator(result):
                return _TracedIterator(tracer, name, stat, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every public function of every layer module, on every
        package namespace that holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        import euleradic.cli  # noqa: F401  (loads every layer module)
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"euleradic.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for namespace in _package_namespaces():
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    setattr(namespace, attr, wrappers[id(obj)])
                    self._installed.append((namespace, attr, obj))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._installed):
            setattr(namespace, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ output

    def self_s(self, prefix: str) -> float:
        return sum(s.self_s for name, s in self.stats.items()
                   if name == prefix or name.startswith(prefix + "."))

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


class _TracedIterator:
    """Generator proxy: each next() is a span named after the function
    that returned the generator."""

    __slots__ = ("_tracer", "_name", "_stat", "_it")

    def __init__(self, tracer, name, stat, it):
        self._tracer, self._name, self._stat, self._it = tracer, name, stat, it

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer._open()
        try:
            item = next(self._it)
        finally:
            self._tracer._close(frame, self._name, self._stat)
        self._stat.items += 1
        return item
