"""In-memory span recorder for the traced benchmark run.

Follows the span model of Dapper (Sigelman et al., Google TR 2010): each
call into a layer is a span with a name, a start, an end and the span that
caused it; spans of one benchmark round share a trace id.  A span's self
time is its duration minus the time covered by its child spans.

The recorder wraps the public functions of every ``touchlab`` module from
outside the package: ``install`` replaces each module-level function with a
timing wrapper in every module namespace that binds it, so calls made
through ``from .x import y`` aliases are seen too.  Nothing in ``src/``
knows about it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
import types
from contextlib import contextmanager

# Span record layout (a list, so the wrapper can fill in the end time).
NAME, START, END, PARENT, TRACE, ATTRS = range(6)


class Recorder:
    """Collects spans in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.trace_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (rounds and steps)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, tag=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``tag(arguments, result)`` may return attributes to store on the
        span; ``arguments`` maps every parameter name to its value.  It runs
        after the span is closed.
        """
        sig = inspect.signature(fn) if tag else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if tag is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                s[ATTRS] = tag(bound.arguments, result)
            return result

        return traced

    # --- queries ---------------------------------------------------------------

    def select(self, name: str, parent: str | None = None) -> list[int]:
        """Indices of the spans called ``name``, optionally only those whose
        parent span is called ``parent``."""
        return [i for i, s in enumerate(self.spans)
                if s[NAME] == name and (parent is None or (
                    s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == parent))]

    def duration_s(self, i: int) -> float:
        return span_seconds(self.spans[i])

    def attrs(self, i: int) -> dict:
        return self.spans[i][ATTRS] or {}

    def child_time_s(self, i: int, child_name: str) -> float:
        return sum(self.duration_s(j) for j, s in enumerate(self.spans)
                   if s[PARENT] == i and s[NAME] == child_name)

    def dump(self, path, summary: dict) -> None:
        """Write one JSON line per span, then one summary line, gzipped."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                rec = {"trace": s[TRACE], "span": i, "parent": s[PARENT],
                       "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                       "self_ns": s[END] - s[START] - child_ns[i]}
                if s[ATTRS]:
                    rec["attrs"] = s[ATTRS]
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def span_seconds(span: list) -> float:
    return (span[END] - span[START]) / 1e9


def install(recorder: Recorder, modules, taggers: dict) -> int:
    """Wrap every public function defined in ``modules``; returns the count.

    ``taggers`` maps a span name such as ``"optics.render"`` to a tag
    function (see :meth:`Recorder.wrap`).
    """
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = f"{short}.{attr}"
                wrapped[obj] = recorder.wrap(name, obj, taggers.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return len(wrapped)
