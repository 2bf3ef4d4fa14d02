"""In-memory spans around calls into the program's layers, and the
arithmetic the per-layer metrics are made from.

A span is one call: its name (`<module>.<function>`), start and end on
`time.perf_counter`, the id of the span that was open when it began, and the
run it belongs to.  Spans stay in memory and are written once, when the
traced process ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, fn, name: str, on_exit=None):
        """fn wrapped so each call records a span named `name`.

        on_exit(span, args, kwargs, result) may add attributes to the span
        after the call returns.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                        parent, self.run)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result
        return traced

    @property
    def current(self) -> Span:
        """The innermost open span; only valid inside a wrapped call."""
        return self._stack[-1]

    def dump(self) -> list[list]:
        """Compact rows [id, name, start, end, parent, attrs]; see load()."""
        return [[s.id, s.name, s.start, s.end, s.parent, s.attrs]
                for s in self.spans]


def load(rows: list[list], run: str) -> list[Span]:
    return [Span(i, name, start, end, parent, run, attrs)
            for i, name, start, end, parent, attrs in rows]


def _children(spans: list[Span]) -> dict[tuple[str, int], list[Span]]:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[(s.run, s.parent)].append(s)
    return kids


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds each layer spent in its own code: every span's duration minus
    the part of it that its direct children cover, summed per layer."""
    kids = _children(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = sum(k.duration for k in kids.get((s.run, s.id), ()))
        out[s.layer] += s.duration - covered
    return dict(out)


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in `names` with no ancestor also named in `names`, so a
    recursive or nested call is counted once."""
    names = {names} if isinstance(names, str) else set(names)
    by_id = {(s.run, s.id): s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        nested = False
        while parent is not None:
            p = by_id[(s.run, parent)]
            if p.name in names:
                nested = True
                break
            parent = p.parent
        if not nested:
            out.append(s)
    return out


def total_time(spans: list[Span], names) -> float:
    return sum(s.duration for s in outermost(spans, names))


def within(spans: list[Span], name: str, ancestor) -> list[Span]:
    """Spans named `name` that have an ancestor named in `ancestor`."""
    ancestors = {ancestor} if isinstance(ancestor, str) else set(ancestor)
    by_id = {(s.run, s.id): s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None:
            p = by_id[(s.run, parent)]
            if p.name in ancestors:
                out.append(s)
                break
            parent = p.parent
    return out
