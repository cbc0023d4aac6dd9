"""Unified observability: tracing spans, metrics registry, phase timings.

``repro.obs`` is stdlib-only and threaded through every layer of the
stack — the scenario engine, the fairness kernels, the campaign runner
and the HTTP service all emit spans and registry metrics through this
package.  Everything is off by default with a near-zero disabled cost;
see :mod:`repro.obs.trace` and :mod:`repro.obs.metrics` for the two
halves and ``docs/observability.md`` for the span taxonomy and metric
names.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    counter,
    histogram,
    registry,
)
from .trace import (
    PHASE_NAMES,
    PhaseCollector,
    Span,
    SpanCollector,
    collect,
    configure_tracing,
    current_span,
    disable_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "counter",
    "histogram",
    "registry",
    "PHASE_NAMES",
    "PhaseCollector",
    "Span",
    "SpanCollector",
    "collect",
    "configure_tracing",
    "current_span",
    "disable_tracing",
    "span",
    "tracing_enabled",
]
