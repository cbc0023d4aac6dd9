"""Harness-side spans: name, start, end, parent — kept in memory.

The harness records a span around every call it makes into a module's
public functions (nothing is added inside ``src/``).  Spans nest through a
per-recorder stack, so a probe that calls two layers in turn yields a
parent span with two children, and a layer's **self time** is its span's
duration minus the part of that interval its child spans cover.  The list
is written as NDJSON once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    """One timed interval; ``parent`` is the ``span_id`` that caused it."""

    span_id: int
    name: str
    start_s: float
    end_s: float
    parent: Optional[int]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class SpanRecorder:
    """Collects spans of one traced run (single-threaded use per recorder)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            span_id=len(self.spans),
            name=name,
            start_s=time.perf_counter(),
            end_s=0.0,
            parent=self._stack[-1] if self._stack else None,
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_s = time.perf_counter()

    def to_dicts(self) -> List[Dict[str, object]]:
        """Every span as a plain record, with its self time beside it."""
        own = self_times(self.spans)
        return [dict(asdict(span), self_s=own[span.span_id]) for span in self.spans]


def _covered(intervals: Sequence[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``span_id -> duration - child coverage`` for every span.

    Child coverage is the union of the direct children's intervals clipped
    to the parent, so overlapping children (spans of two client threads
    under one window) are not subtracted twice.
    """
    children: Dict[int, List[tuple]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent is None or span.parent not in by_id:
            continue
        parent = by_id[span.parent]
        start = max(span.start_s, parent.start_s)
        end = min(span.end_s, parent.end_s)
        if end > start:
            children.setdefault(span.parent, []).append((start, end))
    return {
        span.span_id: span.duration_s - _covered(children.get(span.span_id, ()))
        for span in spans
    }


def write_ndjson(path: str, records: Sequence[Dict[str, object]]) -> None:
    """One JSON object per line (spans and result records alike)."""
    with open(path, "a", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
