"""In-memory span recorder used by the benchmark's workload processes.

A span is one call into a layer: its name, start, end and the span that
was open when it began (its parent).  Spans are appended to a list while
the workload runs and only summarised after it ends, so the recorder
does no I/O and no aggregation on the measured path.

Wrappers are installed from the benchmark's own files by replacing a
public function or method with a timing shim (``Tracer.wrap``) and are
removed again by ``Tracer.restore``; the program's sources stay as they
are.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One recorded call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    parent: int
    start: float
    end: float = float("nan")
    #: Values a wrapper's hooks attach to this call (e.g. RSS readings).
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans and counts around wrapped calls of one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, owner, attr: str, name: str, on_enter=None, on_exit=None) -> None:
        """Replace ``owner.attr`` with a shim that records a span per call.

        ``owner`` is a module or a class; class-, static- and plain
        methods are all handled.  ``on_enter(span, args)`` runs before the
        call and ``on_exit(span, result, args)`` after it returns, both
        inside the span, to attach readings or record counts.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = tracer.open(name)
            try:
                if on_enter is not None:
                    on_enter(span, args)
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span, result, args)
                return result
            finally:
                tracer.close(span)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(shim) if kind else shim)

    def restore(self) -> None:
        """Undo every ``wrap``, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------- summaries
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ancestor(self, span: Span, name: str) -> Span | None:
        """The nearest enclosing span called ``name``, if any."""
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return span
        return None

    def covered(self, *names: str) -> float:
        """Wall time during which at least one span of ``names`` was open."""
        return union_length((s.start, s.end) for s in self.spans if s.name in names)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append((s.start, s.end))
        out = []
        for s, kids in zip(self.spans, children):
            clipped = ((max(a, s.start), min(b, s.end)) for a, b in kids)
            out.append(s.duration - union_length(clipped))
        return out

    def self_time(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

