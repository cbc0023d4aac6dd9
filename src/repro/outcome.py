"""Per-interval outcomes and the scenario result built from them.

:class:`IntervalOutcome` is the one declaration of a per-interval quantity:
each field's ``metadata`` (made by :func:`declare`) holds its :class:`Column`.
:data:`COLUMNS` reads it once, at import, and :class:`ScenarioResult`,
:meth:`IntervalOutcome.record`, :func:`metric_directions` and
:func:`canonical_result_dict` all walk it, so adding a per-interval quantity
is one field here.  Stdlib only: the campaign store and report layer load it
without the scenario stack.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Type

from .exceptions import ConfigurationError


class Reducer(NamedTuple):
    """One headline metric: a scheme's column value reduced to a scalar."""

    metric: str
    reduce: Callable[[Any], float]
    lower_is_better: bool = True


class Column(NamedTuple):
    """How the scenario result keeps one :class:`IntervalOutcome` field.

    ``key`` names it in the result dict; ``kind`` is the per-interval type
    (``float`` or ``bool``; ``kind()`` fills an interval without a value).
    ``as_count`` keeps the number of true intervals instead of a series,
    ``tracked`` lists only the schemes that report it at least once and
    ``volatile`` marks wall-clock values, which canonical dumps strip.
    """

    key: str
    kind: type
    reducers: Tuple[Reducer, ...]
    as_count: bool = False
    tracked: bool = False
    volatile: bool = False
    #: The :class:`IntervalOutcome` field, filled in by :func:`columns_of`.
    name: str = ""


def declare(
    key: str,
    kind: type,
    *reducers: Reducer,
    as_count: bool = False,
    tracked: bool = False,
    volatile: bool = False,
) -> Dict[str, Column]:
    """The ``field(metadata=...)`` of an :class:`IntervalOutcome` quantity."""
    return {"column": Column(key, kind, reducers, as_count, tracked, volatile)}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _total(values: Sequence[float]) -> float:
    return float(sum(values))


@dataclass
class IntervalOutcome:
    """What one scheme produced for one timeline step (the timeline loop in
    :mod:`repro.scenario.engine` fills in ``violation`` — the one place the
    SLO threshold is applied — and ``compute_seconds``)."""

    #: Power of the interval's active subset (% of the fully powered network).
    power_percent: float = field(
        metadata=declare(
            "power_percent",
            float,
            Reducer("mean_power_percent", _mean),
            Reducer("mean_savings_percent", lambda values: 100.0 - _mean(values), False),
        )
    )
    #: Largest arc utilisation, where the scheme knows it.
    max_utilisation: Optional[float] = field(
        default=None,
        metadata=declare("max_utilisation", float, Reducer("peak_utilisation", max), tracked=True),
    )
    #: Whether the active configuration changed since the previous interval
    #: (never on the first).
    recomputed: bool = field(
        default=False,
        metadata=declare("recomputations", bool, Reducer("recomputations", float), as_count=True),
    )
    #: Wall-clock cost of the step: the recomputation-latency proxy.
    compute_seconds: float = field(
        default=0.0,
        metadata=declare(
            "compute_seconds",
            float,
            Reducer("mean_compute_s", _mean),
            Reducer("total_compute_s", _total),
            volatile=True,
        ),
    )
    #: Whether ``max_utilisation`` exceeded the utilisation SLO (``None``: untracked).
    violation: Optional[bool] = field(
        default=None,
        metadata=declare("violations", bool, Reducer("violation_intervals", _total), tracked=True),
    )

    def record(self) -> Dict[str, Any]:
        """The JSON-ready per-scheme interval payload, keyed by field: what
        the service's replay stream and the per-event reaction records carry."""
        return {column.name: getattr(self, column.name) for column in COLUMNS}


def columns_of(outcome_type: Type[IntervalOutcome]) -> Tuple[Column, ...]:
    """The columns an :class:`IntervalOutcome` class declares, in field order."""
    return tuple(spec.metadata["column"]._replace(name=spec.name) for spec in fields(outcome_type))


#: Every per-interval quantity a scenario result keeps.
COLUMNS = columns_of(IntervalOutcome)

#: The one headline metric not read off a column: the fired events a scheme
#: reacted to (the same for every scheme of a scenario).
REACTION_EVENTS = Reducer("reaction_events", lambda records: float(len(records)))


def metric_directions() -> Dict[str, bool]:
    """Every headline metric's direction: ``True`` where smaller values win."""
    reducers = [reducer for column in COLUMNS for reducer in column.reducers]
    return {reducer.metric: reducer.lower_is_better for reducer in (*reducers, REACTION_EVENTS)}


class MalformedResultError(ConfigurationError):
    """A scenario result dict does not have the declared layout."""


def _series(key: str, kind: type, value: Any, length: Optional[int] = None) -> List[Any]:
    """*value* as a list of *kind* (``bool``, or a number that is not a bool)
    of *length* values, if given; else a :class:`MalformedResultError` naming *key*."""
    if (
        not isinstance(value, list)
        or length not in (None, len(value))
        or not all(
            isinstance(item, (int, float)) and isinstance(item, bool) == (kind is bool)
            for item in value
        )
    ):
        count = "" if length is None else f"{length} "
        raise MalformedResultError(
            f"result field {key!r} needs a list of {count}{kind.__name__} values, got {value!r}"
        )
    return [kind(item) for item in value]


def _mapping(key: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise MalformedResultError(f"result field {key!r} must be an object, got {value!r}")
    return value


def _load_column(column: Column, values: Any, intervals: int) -> Dict[str, Any]:
    """One column of a result dict, checked against its declaration."""
    values = _mapping(column.key, values)
    if not column.as_count:
        return {str(k): _series(column.key, column.kind, v, intervals) for k, v in values.items()}
    for label, value in values.items():
        if type(value) is not int or value < 0:
            raise MalformedResultError(
                f"result field {column.key!r}: scheme {label!r} needs a count, got {value!r}"
            )
    return {str(label): value for label, value in values.items()}


def _records(key: str, records: Any) -> List[Dict[str, Any]]:
    if not isinstance(records, list) or not all(isinstance(r, Mapping) for r in records):
        raise MalformedResultError(f"result field {key!r} must be a list of objects")
    return [dict(record) for record in records]


@dataclass
class ScenarioResult:
    """The uniform outcome of one scenario's timeline pass.

    Attributes:
        name: The scenario name (from the spec).
        config_hash: The spec's config hash — two runs with equal
            hashes are the same experiment.
        times_s: Interval start times of the replayed trace.
        columns: Each :data:`COLUMNS` entry's values by result key, then by
            scheme label: a series (one value per interval) or a count.
        spec: The plain-dict spec the scenario was built from.
        events: Every dynamic event that took effect during the replay
            (JSON-ready records, in firing order; empty for event-free runs).
        reaction: Per-scheme reaction records, one per fired event: the
            event, the interval it hit, and the scheme's
            :meth:`IntervalOutcome.record` there.
    """

    name: str
    config_hash: str
    times_s: List[float]
    columns: Dict[str, Dict[str, Any]]
    spec: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    reaction: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)

    @classmethod
    def collect(
        cls, steps: Sequence[Any], outcomes: Mapping[str, Sequence[IntervalOutcome]], **rest: Any
    ) -> "ScenarioResult":
        """The result of a pass over :class:`~repro.scenario.timeline.TimelineStep`
        *steps*: each scheme's *outcomes* (keyed by label, one per step), the
        events that fired and every scheme's reaction to each; *rest* are its
        other fields."""
        reaction = {
            label: [
                {**fired, "interval_index": step.index, "interval_s": step.time_s, **done.record()}
                for step, done in zip(steps, scheme_outcomes, strict=True)
                for fired in step.fired
            ]
            for label, scheme_outcomes in outcomes.items()
        }
        columns: Dict[str, Dict[str, Any]] = {}
        for column in COLUMNS:
            values: Dict[str, Any] = {}
            for label, scheme_outcomes in outcomes.items():
                raw = [getattr(done, column.name) for done in scheme_outcomes]
                if column.as_count:
                    values[label] = sum(bool(value) for value in raw)
                elif not column.tracked or any(value is not None for value in raw):
                    values[label] = [column.kind() if value is None else value for value in raw]
            columns[column.key] = values
        return cls(
            columns=columns,
            events=[dict(record) for step in steps for record in step.fired],
            reaction={label: records for label, records in reaction.items() if records},
            **rest,
        )

    @property
    def compute_seconds(self) -> Dict[str, List[float]]:
        """Each scheme's step latencies (the benchmark's layer probes read them)."""
        return self.columns["compute_seconds"]

    def mean_power_percent(self, label: str) -> float:
        """Average power of a scheme over the replay."""
        return _mean(self.columns["power_percent"][label])

    def labels(self) -> List[str]:
        """Scheme labels, in spec order."""
        return list(self.columns["power_percent"])

    def headline_metrics(self) -> Dict[str, Dict[str, float]]:
        """Every column's reducers per scheme (the store's ``metrics`` rows),
        where the scheme has values: no ``peak_utilisation`` without a
        utilisation series; a missing count is zero."""
        metrics: Dict[str, Dict[str, float]] = {}
        for label in self.labels():
            entry: Dict[str, float] = {}
            for column in COLUMNS:
                value = self.columns[column.key].get(label, 0 if column.as_count else None)
                if column.as_count or value:
                    for reducer in column.reducers:
                        entry[reducer.metric] = reducer.reduce(value)
            if self.reaction.get(label):
                entry[REACTION_EVENTS.metric] = REACTION_EVENTS.reduce(self.reaction[label])
            metrics[label] = entry
        return metrics

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view of the result."""
        return {
            "name": self.name,
            "config_hash": self.config_hash,
            "times_s": list(self.times_s),
            "spec": self.spec,
            "events": [dict(event) for event in self.events],
            "reaction": {k: [dict(record) for record in v] for k, v in self.reaction.items()},
            **{
                column.key: {
                    label: value if column.as_count else list(value)
                    for label, value in self.columns[column.key].items()
                }
                for column in COLUMNS
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a ``--output``
        file).  A column missing from *data* (a row older than it) loads
        empty; any other mismatch raises :class:`MalformedResultError`."""
        if not isinstance(data, Mapping):
            raise MalformedResultError(f"a scenario result must be a mapping, got {data!r}")
        missing = {"name", "config_hash", "times_s", "power_percent"} - set(data)
        if missing:
            raise MalformedResultError(f"scenario result is missing fields: {sorted(missing)}")
        times_s = _series("times_s", float, data["times_s"])
        reaction = _mapping("reaction", data.get("reaction", {}))
        return cls(
            name=str(data["name"]),
            config_hash=str(data["config_hash"]),
            times_s=times_s,
            columns={
                column.key: _load_column(column, data.get(column.key, {}), len(times_s))
                for column in COLUMNS
            },
            spec=dict(_mapping("spec", data.get("spec", {}))),
            events=_records("events", data.get("events", [])),
            reaction={str(k): _records("reaction", v) for k, v in reaction.items()},
        )


def canonical_result_dict(result: Mapping[str, Any]) -> Dict[str, Any]:
    """A result dict with every wall-clock column stripped: two runs of the
    same grid give bit-identical canonical dicts — the basis of the resume
    guarantee — while raw stored rows keep their timings."""
    canonical = copy.deepcopy(dict(result))
    for column in COLUMNS:
        if column.volatile:
            canonical.pop(column.key, None)
            for records in canonical.get("reaction", {}).values():
                for record in records:
                    record.pop(column.name, None)
    return canonical
