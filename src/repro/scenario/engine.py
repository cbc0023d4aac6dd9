"""The scenario engine: build and run declarative experiment specs.

:func:`build_scenario` resolves a :class:`~repro.scenario.spec.ScenarioSpec`
against the component registry into a concrete stack (topology, power model,
traffic trace, pairs, optional baseline routing).  One interval-major driver
(``_drive``) steps every scheme over the merged event/trace
:class:`~repro.scenario.timeline.Timeline` and returns a uniform
:class:`ScenarioResult` per scenario — including, for eventful scenarios,
the fired events and per-event reaction metrics.  Three entries call it:
:func:`run_built_scenario` (one scenario, optionally streaming each interval),
:func:`run_built_scenarios_batch` (a group built by
:func:`build_scenario_group`) and :func:`scheme_outcomes` (each scheme's
details); :func:`run_scenario` builds a spec and runs it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..obs import trace
from ..power.accounting import full_power
from ..power.model import PowerModel
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from ..traffic.replay import TrafficTrace
from .components import BuiltTraffic, as_built_traffic
from .registry import resolve
from .spec import ScenarioSpec, SchemeSpec
from .timeline import (
    GroupComputeCache,
    IntervalCallback,
    IntervalOutcome,
    SchemeRuntime,
    Timeline,
    TimelineEvent,
    TimelineStep,
    build_timeline,
    resolve_events,
)


@dataclass
class BuiltScenario:
    """A spec resolved into concrete objects, ready to run.

    Attributes:
        spec: The declarative spec this stack was built from.
        topology: The physical network.
        power_model: The device power model.
        trace: The demand trace (a single matrix is a one-interval trace).
        pairs: Origin-destination pairs of the workload, shared with plan
            construction.
        baseline_power_w: Power of the fully powered network (100 %).
        events: The spec's events, built and checked against ``topology``,
            in time order.
        routing: Optional baseline routing table (spec's ``routing`` section).
        traffic: The full built workload, including its peak estimate.
    """

    spec: ScenarioSpec
    topology: Topology
    power_model: PowerModel
    trace: TrafficTrace
    pairs: List[Pair]
    baseline_power_w: float
    events: List[TimelineEvent]
    routing: Optional[RoutingTable] = None
    traffic: Optional[BuiltTraffic] = None
    #: Memo for computations the scenarios built as one group can share
    #: (see :class:`~repro.scenario.timeline.GroupComputeCache`); a scenario
    #: built on its own owns a private one.
    shared: GroupComputeCache = field(default_factory=GroupComputeCache)

    def peak_matrix(self) -> TrafficMatrix:
        """The workload's peak demand estimate."""
        if self.traffic is not None:
            return self.traffic.peak()
        return self.trace.peak_matrix()


@dataclass
class ScenarioResult:
    """The uniform outcome of one scenario's timeline pass.

    Attributes:
        name: The scenario name (from the spec).
        config_hash: The spec's config hash — two runs with equal
            hashes are the same experiment.
        times_s: Interval start times of the replayed trace.
        power_percent: Per-scheme power series (% of the original network),
            keyed by scheme label.
        recomputations: Per-scheme count of active-configuration changes
            during the replay.
        max_utilisation: Per-scheme largest arc utilisation per interval
            (empty list where the scheme does not track it).
        spec: The plain-dict spec the scenario was built from.
        events: Every dynamic event that took effect during the replay
            (JSON-ready records, in firing order; empty for event-free runs).
        compute_seconds: Per-scheme wall-clock cost of each timeline step —
            the recomputation-latency proxy (how long the scheme took to
            react to the interval's demand/topology).
        violations: Per-scheme booleans per interval: whether the scheme's
            max utilisation exceeded the spec's SLO (only schemes that track
            utilisation appear).
        reaction: Per-scheme reaction records, one per fired event: the
            event, the interval it hit, and the scheme's post-event power,
            utilisation, violation flag and step latency.
    """

    name: str
    config_hash: str
    times_s: List[float]
    power_percent: Dict[str, List[float]]
    recomputations: Dict[str, int]
    max_utilisation: Dict[str, List[float]] = field(default_factory=dict)
    spec: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    compute_seconds: Dict[str, List[float]] = field(default_factory=dict)
    violations: Dict[str, List[bool]] = field(default_factory=dict)
    reaction: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)

    def mean_power_percent(self, label: str) -> float:
        """Average power of a scheme over the replay."""
        series = self.power_percent[label]
        return sum(series) / len(series) if series else 0.0

    def mean_savings_percent(self, label: str) -> float:
        """Average savings of a scheme relative to the full network."""
        return 100.0 - self.mean_power_percent(label)

    def labels(self) -> List[str]:
        """Scheme labels, in spec order."""
        return list(self.power_percent)

    def rows(self) -> List[tuple]:
        """Report rows: one ``(time, power per scheme...)`` tuple per interval."""
        labels = self.labels()
        return [
            (time,) + tuple(self.power_percent[label][index] for label in labels)
            for index, time in enumerate(self.times_s)
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-scheme headline numbers (mean power/savings, recomputations)."""
        return {
            label: {
                "mean_power_percent": self.mean_power_percent(label),
                "mean_savings_percent": self.mean_savings_percent(label),
                "recomputations": float(self.recomputations.get(label, 0)),
            }
            for label in self.labels()
        }

    def headline_metrics(self) -> Dict[str, Dict[str, float]]:
        """Flattened per-scheme scalar metrics for stores and reports.

        Extends :meth:`summary` with the utilisation/SLO and timing series
        reduced to scalars — the rows the campaign store's ``metrics`` table
        holds, so whole grids aggregate without re-parsing result JSON.
        Only metrics the scheme actually tracked appear (e.g. no
        ``peak_utilisation`` for schemes without a utilisation series).
        """
        metrics: Dict[str, Dict[str, float]] = {}
        for label in self.labels():
            entry = {
                "mean_power_percent": self.mean_power_percent(label),
                "mean_savings_percent": self.mean_savings_percent(label),
                "recomputations": float(self.recomputations.get(label, 0)),
            }
            utilisation = self.max_utilisation.get(label)
            if utilisation:
                entry["peak_utilisation"] = max(utilisation)
            violations = self.violations.get(label)
            if violations is not None:
                entry["violation_intervals"] = float(sum(violations))
            compute = self.compute_seconds.get(label)
            if compute:
                # Wall-clock: useful for latency reports, excluded from
                # determinism-sensitive store comparisons.
                entry["mean_compute_s"] = sum(compute) / len(compute)
                entry["total_compute_s"] = sum(compute)
            reactions = self.reaction.get(label)
            if reactions:
                entry["reaction_events"] = float(len(reactions))
            metrics[label] = entry
        return metrics

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view of the result."""
        return {
            "name": self.name,
            "config_hash": self.config_hash,
            "times_s": list(self.times_s),
            "power_percent": {k: list(v) for k, v in self.power_percent.items()},
            "recomputations": dict(self.recomputations),
            "max_utilisation": {k: list(v) for k, v in self.max_utilisation.items()},
            "spec": self.spec,
            "events": [dict(event) for event in self.events],
            "compute_seconds": {k: list(v) for k, v in self.compute_seconds.items()},
            "violations": {k: list(v) for k, v in self.violations.items()},
            "reaction": {
                k: [dict(record) for record in v] for k, v in self.reaction.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a ``--output`` file)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a scenario result must be a mapping, got {data!r}"
            )
        missing = {"name", "config_hash", "times_s", "power_percent"} - set(data)
        if missing:
            raise ConfigurationError(
                f"scenario result is missing fields: {sorted(missing)}"
            )
        return cls(
            name=str(data["name"]),
            config_hash=str(data["config_hash"]),
            times_s=[float(t) for t in data["times_s"]],
            power_percent={
                str(k): [float(x) for x in v]
                for k, v in data["power_percent"].items()
            },
            recomputations={
                str(k): int(v) for k, v in data.get("recomputations", {}).items()
            },
            max_utilisation={
                str(k): [float(x) for x in v]
                for k, v in data.get("max_utilisation", {}).items()
            },
            spec=dict(data.get("spec", {})),
            events=[dict(event) for event in data.get("events", [])],
            compute_seconds={
                str(k): [float(x) for x in v]
                for k, v in data.get("compute_seconds", {}).items()
            },
            violations={
                str(k): [bool(x) for x in v]
                for k, v in data.get("violations", {}).items()
            },
            reaction={
                str(k): [dict(record) for record in v]
                for k, v in data.get("reaction", {}).items()
            },
        )


def _coerce_spec(spec: Any) -> ScenarioSpec:
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, Mapping):
        return ScenarioSpec.from_dict(spec)
    raise ConfigurationError(
        f"expected a ScenarioSpec or a spec mapping, got {type(spec).__qualname__}"
    )


def build_scenario(spec: Any) -> BuiltScenario:
    """Resolve a spec (a :class:`ScenarioSpec` or its dict form) into a
    runnable stack — the group of one."""
    return build_scenario_group([spec])[0]


def _section_key(section: Any) -> str:
    """A canonical JSON key for one section of a spec dict."""
    return json.dumps(section, sort_keys=True, separators=(",", ":"))


#: The sections every scenario of a group must declare identically: one
#: built network stack serves the whole group.
_GROUP_SECTIONS = ("topology", "power", "routing")


def group_signature(spec: ScenarioSpec) -> Optional[str]:
    """The key under which scenarios may be built as one group.

    Specs with equal signatures declare identical ``topology``, ``power``
    and ``routing`` sections — the precondition of
    :func:`build_scenario_group`.  ``None`` marks a spec that must stay a
    group of one: an eventful scenario's failure-adjusted topology views
    are per-scenario state.
    """
    if spec.events:
        return None
    data = spec.to_dict()
    return _section_key([data.get(section) for section in _GROUP_SECTIONS])


def build_scenario_group(specs: Sequence[Any]) -> List[BuiltScenario]:
    """Build specs as one group, sharing everything shareable.

    All specs must declare identical ``topology``, ``power`` and ``routing``
    sections (grouping by :func:`group_signature` guarantees this).  The group
    shares one built :class:`Topology` and :class:`PowerModel` object, one
    baseline-power evaluation, one built workload per distinct traffic
    section and one routing table per distinct (routing, pairs) combination.
    Every returned :class:`BuiltScenario` carries the same
    :class:`~repro.scenario.timeline.GroupComputeCache` in ``shared``, which
    scheme runtimes use to reuse candidate paths, plans and solver calls
    across the group's points.

    Every component is built by the same call whatever the group's size
    (:func:`build_scenario` is the group of one), so a scenario runs
    bit-identically alone or in any group.
    """
    scenario_specs = [_coerce_spec(spec).validate() for spec in specs]
    if not scenario_specs:
        return []
    head = scenario_specs[0].to_dict()
    for scenario_spec in scenario_specs[1:]:
        other = scenario_spec.to_dict()
        for section in _GROUP_SECTIONS:
            if _section_key(head.get(section)) != _section_key(other.get(section)):
                raise ConfigurationError(
                    f"cannot group scenarios with differing {section!r} sections"
                )

    with trace.span(
        "scenario.build", scenario=scenario_specs[0].name, group_size=len(scenario_specs)
    ):
        shared_topology = scenario_specs[0].topology.build()
        shared_model = scenario_specs[0].power.build(shared_topology)
        baseline_power_w = full_power(shared_topology, shared_model).total_w
        shared_cache = GroupComputeCache()

        traffic_cache: Dict[str, BuiltTraffic] = {}
        routing_cache: Dict[Tuple[str, Tuple[Pair, ...]], RoutingTable] = {}
        builts: List[BuiltScenario] = []
        for scenario_spec in scenario_specs:
            events = resolve_events(scenario_spec.events, shared_topology)
            spec_dict = scenario_spec.to_dict()
            traffic_key = _section_key(spec_dict.get("traffic"))
            built_traffic = traffic_cache.get(traffic_key)
            if built_traffic is None:
                built_traffic = as_built_traffic(
                    scenario_spec.traffic.build(shared_topology),
                    scenario_spec.traffic.name,
                )
                traffic_cache[traffic_key] = built_traffic
            routing = None
            if scenario_spec.routing is not None:
                routing_key = (
                    _section_key(spec_dict.get("routing")),
                    tuple(built_traffic.pairs),
                )
                routing = routing_cache.get(routing_key)
                if routing is None:
                    routing = scenario_spec.routing.build(
                        shared_topology, built_traffic.pairs
                    )
                    routing_cache[routing_key] = routing
            builts.append(
                BuiltScenario(
                    spec=scenario_spec,
                    topology=shared_topology,
                    power_model=shared_model,
                    trace=built_traffic.trace,
                    pairs=list(built_traffic.pairs),
                    baseline_power_w=baseline_power_w,
                    events=events,
                    routing=routing,
                    traffic=built_traffic,
                    shared=shared_cache,
                )
            )
        return builts


# --------------------------------------------------------------------- #
# Driving the timeline
# --------------------------------------------------------------------- #


def run_scenario(spec: Any) -> ScenarioResult:
    """Build a spec's stack and replay its trace under every scheme.

    The entry point behind the figure drivers, the ``run-scenario`` CLI
    subcommand and ``POST /scenarios``: any composition of registered
    topology × traffic × power × schemes runs through here.
    """
    return run_built_scenario(build_scenario(spec))


def run_built_scenario(
    built: BuiltScenario,
    on_interval: Optional[IntervalCallback] = None,
) -> ScenarioResult:
    """Drive an already-built scenario's schemes over its merged timeline.

    Args:
        built: The built scenario.
        on_interval: Optional streaming hook ``fn(step, outcomes)``, called
            once per :class:`~repro.scenario.timeline.TimelineStep` after
            every scheme has advanced through it, with that interval's
            :class:`~repro.scenario.timeline.IntervalOutcome` per scheme
            label.  The scenario service streams replay telemetry through
            it; the returned result is the same with or without it.
    """
    return _drive([built], [_Sinks(on_interval)], scenario=built.spec.name)[0]


def run_built_scenarios_batch(builts: Sequence[BuiltScenario]) -> List[ScenarioResult]:
    """Run a group of built scenarios through one interval-major pass.

    The companion to :func:`build_scenario_group`: all scenarios' timelines
    advance together, so group-shared caches stay hot across points, and
    each result equals :func:`run_built_scenario` of its scenario alone.
    """
    return _drive(builts, [_Sinks() for _ in builts], group_size=len(builts))


def scheme_outcomes(built: BuiltScenario) -> Dict[str, Dict[str, Any]]:
    """Run every scheme of a built scenario and return each one's ``details``.

    Keyed by scheme label, the value is what the scheme's
    :meth:`~repro.scenario.timeline.SchemeRuntime.finish` returned
    (per-interval solutions and configurations, plans, activations) — for
    drivers that need more than the uniform :class:`ScenarioResult` series.
    """
    sinks = _Sinks()
    _drive([built], [sinks], scenario=built.spec.name)
    return sinks.details


@dataclass
class _SchemeProgress:
    """One (scenario, scheme) pair being driven through the pass."""

    label: str
    runtime: SchemeRuntime
    state: Any
    outcomes: List[IntervalOutcome] = field(default_factory=list)
    recomputations: int = 0
    reaction: List[Dict[str, Any]] = field(default_factory=list)

    def series(self, metric: str) -> List[Any]:
        """One :class:`~repro.scenario.timeline.IntervalOutcome` field per interval."""
        return [getattr(outcome, metric) for outcome in self.outcomes]

    def utilisation(self) -> List[float]:
        """The utilisation series (empty when the scheme never tracked it)."""
        raw = self.series("max_utilisation")
        if all(value is None for value in raw):
            return []
        return [value if value is not None else 0.0 for value in raw]


def _start_scheme(built: BuiltScenario, scheme: SchemeSpec) -> _SchemeProgress:
    """Resolve one scheme spec to its runtime and build its long-lived state."""
    component = resolve("scheme", scheme.name)
    if not (isinstance(component, type) and issubclass(component, SchemeRuntime)):
        raise ConfigurationError(
            f"scheme component {scheme.name!r} must be a SchemeRuntime subclass, "
            f"got {component!r}"
        )
    runtime: SchemeRuntime = component(**scheme.kwargs())
    with trace.span("scheme.start", scheme=scheme.label):
        state = runtime.start(built)
    return _SchemeProgress(label=scheme.label, runtime=runtime, state=state)


def _step_scheme(
    scheme: _SchemeProgress, step: TimelineStep, threshold: float
) -> IntervalOutcome:
    """Advance one scheme by one timeline step, noting its reaction records."""
    with trace.span("scheme.step", scheme=scheme.label, interval=step.index) as step_span:
        # compute_seconds is the paper's recomputation-latency proxy: a
        # deliberate wall-clock measurement that never feeds results —
        # canonical_dump strips it (pinned by the identity batteries).
        # repro: allow[REP101] compute_seconds latency proxy, stripped from canonical dumps
        started = time.perf_counter()
        outcome = scheme.runtime.step(scheme.state, step.time_s, step.matrix, step.view)
        # repro: allow[REP101] compute_seconds latency proxy, stripped from canonical dumps
        outcome.compute_seconds = time.perf_counter() - started
        step_span.set(recomputed=outcome.recomputed)
    if outcome.max_utilisation is not None:
        outcome.violation = bool(outcome.max_utilisation > threshold + 1e-9)
    scheme.outcomes.append(outcome)
    scheme.recomputations += int(outcome.recomputed)
    for fired in step.fired:
        scheme.reaction.append(
            {
                **fired,
                "interval_index": step.index,
                "interval_s": step.time_s,
                **outcome.record(),
            }
        )
    return outcome


@dataclass
class _Sinks:
    """Where one scenario's pass goes besides its :class:`ScenarioResult`.

    ``on_interval`` sees each completed interval — the step plus every
    scheme's outcome — as it is computed; ``details`` receives each
    scheme's :meth:`~repro.scenario.timeline.SchemeRuntime.finish` once the
    pass is over.
    """

    on_interval: Optional[IntervalCallback] = None
    details: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def _drive(
    builts: Sequence[BuiltScenario], sinks: Sequence[_Sinks], **span: Any
) -> List[ScenarioResult]:
    """The one timeline driver: an interval-major pass over built scenarios.

    Every runtime is started up-front, then interval ``i`` of every
    (scenario, scheme) pair runs before interval ``i+1`` of any, and each
    scenario's completed interval goes to its :class:`_Sinks`.  Schemes are
    independent (each runtime owns its state), so per (scenario, scheme)
    the sequence of ``step`` calls — and therefore every computed value —
    does not depend on what else is in the pass; the interleaving is what
    lets the scenarios' shared
    :class:`~repro.scenario.timeline.GroupComputeCache` turn repeated plan
    builds and solves into lookups.  Wall-clock ``compute_seconds`` are the
    only fields that can differ between two passes, and every
    determinism-sensitive comparison strips them.  *span* holds the
    attributes of the pass's ``timeline.run`` span.

    Raises:
        ConfigurationError: If a scenario names no schemes.
    """
    for built in builts:
        if not built.spec.schemes:
            raise ConfigurationError(
                "the scenario names no schemes; add at least one to its 'schemes' list"
            )
    with trace.span("timeline.run", **span):
        timelines: List[Timeline] = []
        progress: List[List[_SchemeProgress]] = []
        for built in builts:
            timelines.append(build_timeline(built.topology, built.trace, built.events))
            progress.append([_start_scheme(built, scheme) for scheme in built.spec.schemes])

        # Traces may differ in length across the scenarios; a shorter one
        # simply stops participating early.
        for index in range(max((len(timeline) for timeline in timelines), default=0)):
            with trace.span("timeline.interval", interval=index, group_size=len(builts)):
                for built, timeline, schemes, sink in zip(
                    builts, timelines, progress, sinks, strict=True
                ):
                    if index < len(timeline):
                        step = timeline.steps[index]
                        threshold = built.spec.utilisation_threshold
                        outcomes = {
                            scheme.label: _step_scheme(scheme, step, threshold)
                            for scheme in schemes
                        }
                        if sink.on_interval is not None:
                            sink.on_interval(step, outcomes)
        for schemes, sink in zip(progress, sinks, strict=True):
            for scheme in schemes:
                sink.details[scheme.label] = scheme.runtime.finish(scheme.state)

    return [
        _scenario_result(built, timeline, schemes)
        for built, timeline, schemes in zip(builts, timelines, progress, strict=True)
    ]


def _scenario_result(
    built: BuiltScenario, timeline: Timeline, schemes: Sequence[_SchemeProgress]
) -> ScenarioResult:
    """The uniform result of one scenario's completed pass."""
    utilisation = {scheme.label: scheme.utilisation() for scheme in schemes}
    return ScenarioResult(
        name=built.spec.name,
        config_hash=built.spec.config_hash(),
        times_s=built.trace.timestamps(),
        power_percent={scheme.label: scheme.series("power_percent") for scheme in schemes},
        recomputations={scheme.label: scheme.recomputations for scheme in schemes},
        max_utilisation={label: series for label, series in utilisation.items() if series},
        spec=built.spec.to_dict(),
        events=timeline.fired_records(),
        compute_seconds={
            scheme.label: scheme.series("compute_seconds") for scheme in schemes
        },
        violations={
            scheme.label: [bool(value) for value in scheme.series("violation")]
            for scheme in schemes
            if utilisation[scheme.label]
        },
        reaction={scheme.label: scheme.reaction for scheme in schemes if scheme.reaction},
    )
