"""The scenario engine: build and run declarative experiment specs.

:func:`build_scenario` resolves a :class:`~repro.scenario.spec.ScenarioSpec`
against the component registry into a concrete stack (topology, power model,
traffic trace, pairs, optional baseline routing).  :func:`run_scenario`
drives the spec's schemes over the merged event/trace timeline
(:func:`~repro.scenario.timeline.run_timeline`) and returns a uniform
:class:`ScenarioResult` — including, for eventful scenarios, the fired
events and per-event reaction metrics.  :func:`run_scenario_dict` is the
same run for a spec given as a plain dict.
"""

from __future__ import annotations

import json
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
from .spec import ScenarioSpec
from .timeline import (
    GroupComputeCache,
    IntervalCallback,
    SchemeRun,
    TimelineEvent,
    TimelineRun,
    resolve_events,
    run_timeline,
    run_timeline_batch,
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
    """Uniform outcome of :func:`run_scenario`.

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


def run_scenario(spec: Any) -> ScenarioResult:
    """Build a spec's stack and replay its trace under every scheme.

    This is the single entry point behind the figure drivers, the
    ``run-scenario`` CLI subcommand and ad-hoc sweeps: any composition of
    registered topology × traffic × power × schemes runs through here.
    """
    scenario_spec = _coerce_spec(spec)
    if not scenario_spec.schemes:
        raise ConfigurationError(
            "the scenario names no schemes; add at least one to its 'schemes' list"
        )
    return run_built_scenario(build_scenario(scenario_spec))


def run_built_scenario(
    built: BuiltScenario,
    on_interval: Optional[IntervalCallback] = None,
) -> ScenarioResult:
    """Drive an already-built scenario's schemes over its merged timeline.

    Args:
        built: The built scenario.
        on_interval: Optional streaming hook forwarded to
            :func:`~repro.scenario.timeline.run_timeline` — called once per
            interval with the step and its per-scheme outcomes, which is how
            the scenario service pushes live replay telemetry while the
            returned result stays bit-identical to an offline run.
    """
    with trace.span("timeline.run", scenario=built.spec.name):
        run = run_timeline(built, on_interval=on_interval)
    return _result_from_run(built, run)


def _result_from_run(built: BuiltScenario, run: TimelineRun) -> ScenarioResult:
    """Assemble the uniform result from a completed timeline run."""
    utilisation = {
        label: scheme_run.max_utilisation() for label, scheme_run in run.schemes.items()
    }
    return ScenarioResult(
        name=built.spec.name,
        config_hash=built.spec.config_hash(),
        times_s=run.times_s,
        power_percent={
            label: scheme_run.power_percent()
            for label, scheme_run in run.schemes.items()
        },
        recomputations={
            label: scheme_run.recomputations
            for label, scheme_run in run.schemes.items()
        },
        max_utilisation={label: series for label, series in utilisation.items() if series},
        spec=built.spec.to_dict(),
        events=run.events,
        compute_seconds={
            label: scheme_run.compute_seconds()
            for label, scheme_run in run.schemes.items()
        },
        violations={
            label: scheme_run.violations()
            for label, scheme_run in run.schemes.items()
            if utilisation[label]
        },
        reaction={label: records for label, records in run.reaction.items() if records},
    )


# repro: allow[REP501] resolved by string from the harness-held sweep_point shim (ROADMAP 5b)
def run_scenario_dict(spec: Mapping[str, Any]) -> ScenarioResult:
    """Run a scenario given as a plain dict.

    Its import reference is part of the payload
    :meth:`~repro.scenario.spec.ScenarioSpec.config_hash` hashes, and it is
    the function :meth:`~repro.scenario.spec.ScenarioSpec.sweep_point` names
    for the benchmark harness's point probe — so neither its name nor its
    module can change without moving every stored config hash.
    """
    return run_scenario(ScenarioSpec.from_dict(spec))


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


def run_built_scenarios_batch(builts: Sequence[BuiltScenario]) -> List[ScenarioResult]:
    """Run a group of built scenarios through one interval-major pass.

    The companion to :func:`build_scenario_group`: all scenarios' timelines
    advance together (see
    :func:`~repro.scenario.timeline.run_timeline_batch`), so group-shared
    caches stay hot across points.  Each result is assembled exactly as
    :func:`run_built_scenario` would.
    """
    for built in builts:
        if not built.spec.schemes:
            raise ConfigurationError(
                "the scenario names no schemes; add at least one to its"
                " 'schemes' list"
            )
    with trace.span("timeline.run", group_size=len(builts)):
        runs = run_timeline_batch(builts)
    return [_result_from_run(built, run) for built, run in zip(builts, runs, strict=True)]


def scheme_outcomes(built: BuiltScenario) -> Dict[str, SchemeRun]:
    """Run every scheme of a built scenario, returning each scheme's run.

    For drivers that need scheme ``details`` (per-interval solutions,
    activation objects) beyond the uniform :class:`ScenarioResult` series.
    """
    with trace.span("timeline.run", scenario=built.spec.name):
        return run_timeline(built).schemes
