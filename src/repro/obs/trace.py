"""Nested tracing spans with monotonic timings and NDJSON sidecars.

A span marks one timed region of work — a scenario build, a solver
invocation, one timeline interval — and carries structured attributes
(the kernel chosen, the number of iterations, whether a cache hit).
Spans nest through a thread-local stack, so the emitted records form a
tree (``parent_id`` links) that can be reassembled offline from the
NDJSON sidecar, one JSON object per line.

Everything is **off by default** and the disabled fast path is a single
module-global boolean test: ``span(...)`` returns a shared no-op context
manager until either a sidecar writer is configured
(:func:`configure_tracing`) or a :class:`SpanCollector` is installed
(:func:`collect`).  Instrumented code therefore stays on the hot path —
the engine wraps its interval and kernel loops in ``with span(...)``
unconditionally.

The writer survives ``fork()``: every emit re-checks the recorded PID
and reopens the sidecar in append mode from the child, so a
``run-campaign --workers N`` fleet interleaves whole lines from every
process into one file.

Instrumentation must never perturb results — spans only read clocks and
write to the sidecar; the engine's arithmetic is untouched (pinned by
the traced-vs-untraced ``canonical_dump`` identity tests).
"""

from __future__ import annotations

import json
import os
import threading
import time
from types import TracebackType
from typing import Any, Dict, List, Optional, TextIO, Union

__all__ = [
    "Span",
    "SpanCollector",
    "PhaseCollector",
    "PHASE_NAMES",
    "span",
    "current_span",
    "configure_tracing",
    "disable_tracing",
    "tracing_enabled",
    "collect",
]

_lock = threading.Lock()
_writer: Optional[TextIO] = None
_writer_path: Optional[str] = None
_writer_pid: int = -1
_next_span_id = 0
_collector_count = 0
#: The one flag the disabled fast path tests.  True iff a sidecar writer
#: is configured or at least one collector is installed (in any thread).
_enabled = False

_local = threading.local()


def _stack() -> "List[Span]":
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _collectors() -> "List[SpanCollector]":
    collectors = getattr(_local, "collectors", None)
    if collectors is None:
        collectors = _local.collectors = []
    return collectors


def _refresh_enabled() -> None:
    global _enabled
    _enabled = _writer is not None or _collector_count > 0


class Span:
    """One timed, attributed region; a context manager.

    Attributes set during the region (``span.set(iterations=7)``) land in
    the emitted record's ``attrs`` object.  Timing uses
    ``time.perf_counter`` (monotonic); the record also carries a wall
    clock ``ts`` for cross-process alignment.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start_ts", "duration_s", "_t0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start_ts = 0.0
        self.duration_s = 0.0
        self._t0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        global _next_span_id
        with _lock:
            _next_span_id += 1
            self.span_id = _next_span_id
        stack = _stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        for collector in _collectors():
            collector.on_enter(self)
        self.start_ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        for collector in _collectors():
            collector.on_exit(self)
        _emit(self)
        return False


class _NoopSpan:
    """The shared disabled-path span: enter/exit/set all do nothing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attrs: Any) -> Union[Span, "_NoopSpan"]:
    """A context manager timing *name*; no-op unless tracing is enabled."""
    if not _enabled:
        return _NOOP
    return Span(name, attrs)


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, if any."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def tracing_enabled() -> bool:
    """Whether spans are live (sidecar writer or collector installed)."""
    return _enabled


def configure_tracing(path: str) -> None:
    """Open (append) an NDJSON sidecar at *path* and start emitting spans."""
    global _writer, _writer_path, _writer_pid
    with _lock:
        if _writer is not None:
            try:
                _writer.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
        _writer = open(path, "a", encoding="utf-8")
        _writer_path = path
        _writer_pid = os.getpid()
    _refresh_enabled()


def disable_tracing() -> None:
    """Close the sidecar writer and stop emitting spans."""
    global _writer, _writer_path, _writer_pid
    with _lock:
        if _writer is not None:
            try:
                _writer.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
        _writer = None
        _writer_path = None
        _writer_pid = -1
    _refresh_enabled()


def _emit(span: Span) -> None:
    global _writer, _writer_pid
    if _writer is None:
        return
    record: Dict[str, Any] = {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "pid": os.getpid(),
        "thread": threading.get_ident(),
        "ts": span.start_ts,
        "duration_s": span.duration_s,
    }
    if span.attrs:
        record["attrs"] = span.attrs
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    with _lock:
        if _writer is None:
            return
        if os.getpid() != _writer_pid:
            # Forked child: the inherited file object shares the parent's
            # buffer — reopen the sidecar so each process appends whole
            # lines through its own descriptor.
            try:
                _writer = open(_writer_path, "a", encoding="utf-8")
            except OSError:  # pragma: no cover - sidecar dir vanished
                _writer = None
                return
            _writer_pid = os.getpid()
        try:
            _writer.write(line)
            _writer.flush()
        except OSError:  # pragma: no cover - disk full etc.; tracing is best-effort
            pass


class SpanCollector:
    """Receives every span enter/exit on the installing thread."""

    def on_enter(self, span: Span) -> None:  # pragma: no cover - interface
        pass

    def on_exit(self, span: Span) -> None:  # pragma: no cover - interface
        pass


class collect:
    """Install *collector* on this thread for the duration of the block.

    Installing a collector activates span timing even without a sidecar
    writer — this is how ``--profile`` measures phase breakdowns without
    writing a trace file.
    """

    def __init__(self, collector: SpanCollector) -> None:
        self.collector = collector

    def __enter__(self) -> SpanCollector:
        global _collector_count
        _collectors().append(self.collector)
        with _lock:
            _collector_count += 1
        _refresh_enabled()
        return self.collector

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        global _collector_count
        collectors = _collectors()
        if self.collector in collectors:
            collectors.remove(self.collector)
        with _lock:
            _collector_count -= 1
        _refresh_enabled()
        return False


#: The per-point phase breakdown reported by ``--profile`` and
#: ``campaign-report --timings``, in presentation order.
PHASE_NAMES = ("build", "calibrate", "solve", "allocate", "overhead")


class PhaseCollector(SpanCollector):
    """Folds a point's span stream into build/calibrate/solve/allocate sums.

    Nesting is handled by exclusive attribution: calibration time is
    subtracted from the enclosing ``scenario.build`` span, and fairness
    kernel time from any enclosing solver span, so the four phases never
    double-count a second.  ``overhead`` is whatever part of the measured
    elapsed time none of the phase spans cover (python glue, caching,
    serialisation).
    """

    #: Solver-side spans: precomputation at scheme start plus per-step solves.
    SOLVE_SPANS = frozenset({"scheme.start", "scheme.solve"})

    def __init__(self) -> None:
        self._build_incl = 0.0
        self._calibrate = 0.0
        self._calibrate_in_build = 0.0
        self._solve_incl = 0.0
        self._kernel_in_solve = 0.0
        self._allocate = 0.0
        self._build_depth = 0
        self._solve_depth = 0

    def on_enter(self, span: Span) -> None:
        if span.name == "scenario.build":
            self._build_depth += 1
        elif span.name in self.SOLVE_SPANS:
            self._solve_depth += 1

    def on_exit(self, span: Span) -> None:
        name = span.name
        duration = span.duration_s
        if name == "traffic.calibrate":
            self._calibrate += duration
            if self._build_depth:
                self._calibrate_in_build += duration
        elif name == "scenario.build":
            self._build_depth -= 1
            if self._build_depth == 0:
                self._build_incl += duration
        elif name in self.SOLVE_SPANS:
            self._solve_depth -= 1
            if self._solve_depth == 0:
                self._solve_incl += duration
        elif name == "fairness.kernel":
            self._allocate += duration
            if self._solve_depth:
                self._kernel_in_solve += duration

    def phases(self, elapsed_s: Optional[float] = None) -> Dict[str, float]:
        """The phase breakdown; includes ``overhead`` when *elapsed_s* given."""
        breakdown = {
            "build": max(self._build_incl - self._calibrate_in_build, 0.0),
            "calibrate": self._calibrate,
            "solve": max(self._solve_incl - self._kernel_in_solve, 0.0),
            "allocate": self._allocate,
        }
        if elapsed_s is not None:
            breakdown["overhead"] = max(elapsed_s - sum(breakdown.values()), 0.0)
        return breakdown
