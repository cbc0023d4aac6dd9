"""Process-wide metrics registry: named counters and histograms.

The repo grew ad-hoc perf state in several corners — the calibration
memo's hit/miss dict, the compiled flow-set cache, batch-group
fallbacks, lease churn.  This registry absorbs them behind
one snapshot API so the service can expose everything at ``GET /metrics``
and future optimisation work reads one dashboard instead of four dicts.

Design points, all stdlib:

* **Families with labels.**  ``registry().counter("x_total")`` returns a
  family; ``family.labels(route="status")`` returns a child keyed by the
  sorted label items.  Operating on the family itself operates on its
  unlabelled child, so the common no-label case reads like a plain
  counter.
* **Thread-safe.**  Every child guards its state with a lock — the
  service's ``ThreadingHTTPServer`` increments from many threads while
  ``/metrics`` snapshots concurrently.
* **Resettable.**  Prometheus counters never go down, but the back-compat
  shims (``clear_calibration_cache``) and tests need a zero; ``reset()``
  exists for them and is not exposed over HTTP.
* **One snapshot, two render targets.**  :meth:`MetricsRegistry.snapshot`
  returns the data as plain dicts for ``?format=json`` and programmatic
  use; :func:`render_snapshot` emits it in the text exposition format
  (``text/plain; version=0.0.4``).  Snapshots are JSON, so one process can
  show another's (:func:`labelled_union`).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "registry",
    "counter",
    "histogram",
    "DEFAULT_BUCKETS",
    "labelled_union",
    "render_snapshot",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds), tuned for request/step latencies.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


class _Counter:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class _Histogram:
    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # trailing slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def sample(self) -> Dict[str, Any]:
        with self._lock:
            cumulative: Dict[str, int] = {}
            running = 0
            for bound, count in zip(self.buckets, self._counts, strict=False):
                running += count
                cumulative[format_float(bound)] = running
            cumulative["+Inf"] = running + self._counts[-1]
            return {"count": self._count, "sum": self._sum, "buckets": cumulative}


def format_float(value: float) -> str:
    """Bucket bounds as Prometheus renders them (no trailing ``.0`` noise)."""
    if value == math.inf:
        return "+Inf"
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: _LabelKey, extra: Optional[Tuple[Tuple[str, str], ...]] = None) -> str:
    items = list(labels) + list(extra or ())
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape_label(str(value))}"' for key, value in items)
    return "{" + body + "}"


class MetricFamily:
    """One named metric with zero or more labelled children."""

    def __init__(
        self,
        kind: str,
        name: str,
        help_text: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help_text
        self.buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        self._lock = threading.Lock()
        self._children: Dict[_LabelKey, Any] = {}

    def _make_child(self) -> Union[_Counter, _Histogram]:
        if self.kind == "counter":
            return _Counter()
        return _Histogram(self.buckets)

    def labels(self, **labels: Any) -> Any:
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        key = tuple(sorted((name, str(value)) for name, value in labels.items()))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    # Unlabelled convenience: the family behaves as its own () child.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def reset(self) -> None:
        with self._lock:
            children = list(self._children.values())
        for child in children:
            child.reset()

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._children.items())
        rendered: List[Dict[str, Any]] = []
        for key, child in items:
            entry: Dict[str, Any] = {"labels": dict(key)}
            entry.update(child.sample())
            rendered.append(entry)
        return rendered


class MetricsRegistry:
    """A process-wide, thread-safe collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        kind: str,
        name: str,
        help_text: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(
                    kind, name, help_text, buckets
                )
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, requested as {kind}"
                )
            return family

    def counter(self, name: str, help_text: str = "") -> MetricFamily:
        return self._family("counter", name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        return self._family("histogram", name, help_text, buckets)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """Every family's current samples as plain dicts (JSON-ready)."""
        return {
            family.name: {
                "type": family.kind,
                "help": family.help,
                "samples": family.samples(),
            }
            for family in self.families()
        }

    def reset(self) -> None:
        """Zero every child (tests and back-compat cache-clear shims)."""
        for family in self.families():
            family.reset()


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """A :meth:`MetricsRegistry.snapshot` in the text exposition format."""
    lines: List[str] = []
    for name, family in snapshot.items():
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = tuple(sorted(sample["labels"].items()))
            if family["type"] == "histogram":
                for bound, count in sample["buckets"].items():
                    suffix = _render_labels(labels, (("le", bound),))
                    lines.append(f"{name}_bucket{suffix} {count}")
                label_text = _render_labels(labels)
                lines.append(f"{name}_sum{label_text} {format_float(sample['sum'])}")
                lines.append(f"{name}_count{label_text} {sample['count']}")
            else:
                label_text = _render_labels(labels)
                lines.append(f"{name}{label_text} {format_float(sample['value'])}")
    return "\n".join(lines) + "\n"


def labelled_union(
    local: Dict[str, Any], other: Optional[Dict[str, Any]], **labels: str
) -> Dict[str, Any]:
    """*local*'s snapshot with *other*'s samples added under *labels*, one
    family per name: how ``serve`` shows its drain process's registry."""
    merged = {name: dict(family, samples=list(family["samples"])) for name, family in local.items()}
    for name, family in (other or {}).items():
        merged.setdefault(name, dict(family, samples=[]))["samples"] += [
            dict(sample, labels={**sample["labels"], **labels}) for sample in family["samples"]
        ]
    return dict(sorted(merged.items()))


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, help_text: str = "") -> MetricFamily:
    """Get or create a counter family in the default registry."""
    return _REGISTRY.counter(name, help_text)


def histogram(
    name: str, help_text: str = "", buckets: Optional[Tuple[float, ...]] = None
) -> MetricFamily:
    """Get or create a histogram family in the default registry."""
    return _REGISTRY.histogram(name, help_text, buckets)
