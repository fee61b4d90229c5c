"""Outside-in span tracer for the benchmark.

The tracer wraps public functions and methods of the installed package at
run time; nothing in the package itself is instrumented.  Each call to a
wrapped target records one span: name, start, end, parent span and run
id.  Spans stay in memory until :meth:`Tracer.write_jsonl` at the end.

Work the tracer does for an observer (counting tape nodes, comparing
transport plans) is recorded as a ``trace.bookkeeping`` child span, so it
is subtracted from the self time of the span it happened inside.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Nestable spans on one thread, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []

    def begin_run(self):
        """Start a new run id; later spans belong to it."""
        self.run += 1

    def open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), float("nan"), parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name, fn, observer=None, before=None):
        """Return ``fn`` recorded as span ``name``.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``observer(args, result, state)`` after the call; both
        run outside the span and are booked as tracer bookkeeping.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                with self.span(BOOKKEEPING):
                    state = before(args)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observer is not None:
                with self.span(BOOKKEEPING):
                    observer(args, result, state)
            return result

        return traced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def totals(spans) -> dict:
    """Name -> (calls, inclusive seconds, self seconds)."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.id]
    return {name: tuple(row) for name, row in out.items()}


class Patcher:
    """Replace a name in every loaded module of a package; undo on exit.

    A function imported with ``from .x import f`` is bound in each
    importing module, so every binding of the same object is swapped.
    Methods are swapped on their class.
    """

    def __init__(self, package: str):
        self.package = package
        self._undo = []

    def patch_function(self, module, name, make_wrapper):
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            if getattr(mod, name, None) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapper)
        return wrapper

    def patch_method(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
