"""Span tracing from outside the layers.

:class:`Tracer` replaces the public callables named in ``spec.SPANS``
with timing wrappers at runtime, keeps one record per call in memory,
and puts the originals back on :meth:`Tracer.uninstall`.  Nothing under
``src/`` knows it exists.

A span record is ``name, start, end, parent, round, thread``.  Parents
are tracked per thread (a dispatcher thread's ``execute_batch`` is a
root span on that thread, not a child of the caller's ``job.wait``).
A span's *self* time is its duration minus the durations of its direct
children, so the self times of one thread's spans add up to the time
that thread spent under any span.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

from spec import SPANS

_MISSING = object()


class _Span:
    __slots__ = ("name", "start", "end", "parent", "round", "thread", "child_s")

    def __init__(self, name, start, parent, round_, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round = round_
        self.thread = thread
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


def _resolve(target: str):
    """``"module:Class.attr"`` -> ``(class, attr)``."""
    module, _, qual = target.partition(":")
    cls_name, _, attr = qual.partition(".")
    return getattr(importlib.import_module(module), cls_name), attr


class Tracer:
    def __init__(self, spans: dict[str, str] = SPANS):
        self._targets = {name: _resolve(t) for name, t in spans.items()}
        self.spans: list[_Span] = []
        #: round number stamped on new spans (set by the measuring loop)
        self.round = -1
        self._stacks = threading.local()
        #: (class, attr, what the class __dict__ held before install)
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        stacks = self._stacks
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(stacks, "stack", None)
            if stack is None:
                stack = stacks.stack = []
            parent = stack[-1] if stack else None
            span = _Span(
                name, clock(), parent, self.round, threading.current_thread().name
            )
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                spans.append(span)  # list.append is atomic under the GIL

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for name, (cls, attr) in self._targets.items():
            self._saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._saved):
            if original is _MISSING:  # attr was inherited: drop the override
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, self seconds, total seconds)`` over all spans."""
        out = {name: (0, 0.0, 0.0) for name in self._targets}
        for s in self.spans:
            calls, self_s, total = out[s.name]
            out[s.name] = (calls + 1, self_s + s.self_s, total + s.end - s.start)
        return out

    def root_seconds(self, thread: str) -> float:
        """Time ``thread`` spent under any span (sum of its root spans)."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.parent is None and s.thread == thread
        )

    def write_jsonl(self, path: str) -> None:
        """One span per line; ``parent`` is the line number (0-based) of
        the calling span, or null for a root."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": None if s.parent is None else index[id(s.parent)],
                            "round": s.round,
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )
