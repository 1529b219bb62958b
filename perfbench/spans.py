"""In-memory span tracer that wraps hgrec's public functions from outside.

Each wrapped function records one span per call: name, start, end, the
enclosing span and the query it serves. A wrapper may attach counts to the
open span with ``note``. Nothing inside the program changes: the tracer
replaces a function at the name its caller looks up and puts it back on
``uninstall``. A name that no longer exists is skipped, so its metrics read
as absent rather than as zero.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    query: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, query_names: frozenset[str] = frozenset()):
        self.spans: list[Span] = []
        self.query_names = query_names
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._queries = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            query = self.spans[parent].query if parent >= 0 else None
            if query is None and name in self.query_names:
                self._queries += 1
                query = self._queries
            span = Span(name, time.perf_counter(), parent=parent, query=query)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def note(self, **counts) -> None:
        """Add counts to the innermost open span."""
        if self._stack:
            span_counts = self.spans[self._stack[-1]].counts
            for key, value in counts.items():
                span_counts[key] = span_counts.get(key, 0) + value

    def patch(self, owner, attr: str, name: str, adapt=None) -> bool:
        """Replace ``owner.attr`` with a traced version; False if it is gone.

        ``adapt(fn)`` may first wrap the function, for example to note
        counts derived from its arguments or result.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return False
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        traced = self.wrap(name, adapt(fn) if adapt else fn)
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "query": span.query,
                            "counts": span.counts,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


@dataclass
class Totals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def aggregate(spans: list[Span]) -> dict[str, Totals]:
    """Per span name: calls, total seconds, self seconds and summed counts.

    Self time is a span's duration minus that of its direct children; calls
    in one thread do not overlap, so the children never double count.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, Totals] = {}
    for index, span in enumerate(spans):
        totals = out.setdefault(span.name, Totals())
        duration = span.end - span.start
        totals.calls += 1
        totals.s += duration
        totals.self_s += duration - child_time[index]
        for key, value in span.counts.items():
            totals.counts[key] = totals.counts.get(key, 0) + value
    return out
