"""The scenario engine: build and run declarative experiment specs.

:func:`build_scenario` resolves a :class:`~repro.scenario.spec.ScenarioSpec`
against the component registry into a concrete stack (topology, power model,
traffic trace, pairs, optional baseline routing).  One driver (``_drive``)
steps every scheme of a scenario over the merged event/trace
:class:`~repro.scenario.timeline.Timeline` and returns a uniform
:class:`~repro.outcome.ScenarioResult` — including, for eventful scenarios,
the fired events and per-event reaction metrics.  Two entries call it:
:func:`run_built_scenario` (optionally streaming each interval) and
:func:`scheme_outcomes` (each scheme's details); :func:`run_scenario` builds
a spec and runs it.  :func:`build_scenario_group` builds the scenarios of a
campaign group on one shared stack, and each is run on its own.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..obs import trace
from ..outcome import IntervalOutcome, ScenarioResult
from ..power.accounting import full_power
from ..power.model import PowerModel
from ..routing.ksp import keep_intervals
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from ..traffic.replay import TrafficTrace
from .components import BuiltTraffic, as_built_traffic
from .registry import resolve
from .spec import ScenarioSpec, SchemeSpec
from .timeline import (
    IntervalCallback,
    SchemeRuntime,
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

    def peak_matrix(self) -> TrafficMatrix:
        """The workload's peak demand estimate."""
        if self.traffic is not None:
            return self.traffic.peak()
        return self.trace.peak_matrix()


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
    section and one routing table per distinct (routing, pairs) combination
    (what the schemes compute is kept per process, by network content:
    :class:`~repro.routing.ksp.NetworkEntry`, which from now on keeps every
    GreenTE solve and ECMP evaluation the group's points step through).

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
                )
            )
        keep_intervals(sum(len(built.trace) * len(built.spec.schemes) for built in builts))
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
            :class:`~repro.outcome.IntervalOutcome` per scheme
            label.  The scenario service streams replay telemetry through
            it; the returned result is the same with or without it.
    """
    return _drive(built, _Sinks(on_interval))


def scheme_outcomes(built: BuiltScenario) -> Dict[str, Dict[str, Any]]:
    """Run every scheme of a built scenario and return each one's ``details``.

    Keyed by scheme label, the value is what the scheme's
    :meth:`~repro.scenario.timeline.SchemeRuntime.finish` returned
    (per-interval solutions and configurations, plans, activations) — for
    drivers that need more than the uniform :class:`ScenarioResult` series.
    """
    sinks = _Sinks()
    _drive(built, sinks)
    return sinks.details


@dataclass
class _SchemeProgress:
    """One scheme of the scenario being driven through the pass."""

    label: str
    runtime: SchemeRuntime
    state: Any
    outcomes: List[IntervalOutcome] = field(default_factory=list)


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
    """Advance one scheme by one timeline step."""
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


def _drive(built: BuiltScenario, sinks: _Sinks) -> ScenarioResult:
    """The one timeline driver: a pass over one built scenario.

    Every runtime is started up-front, then interval ``i`` of every scheme
    runs before interval ``i+1`` of any, and each completed interval goes
    to the :class:`_Sinks`.  Schemes are independent (each runtime owns its
    state), and what a runtime memoises is a pure function of its key, so
    every computed value is the same whatever ran before; wall-clock
    ``compute_seconds`` are the only fields that can differ between two
    passes, and every determinism-sensitive comparison strips them.

    Raises:
        ConfigurationError: If the scenario names no schemes.
    """
    if not built.spec.schemes:
        raise ConfigurationError(
            "the scenario names no schemes; add at least one to its 'schemes' list"
        )
    threshold = built.spec.utilisation_threshold
    with trace.span("timeline.run", scenario=built.spec.name):
        timeline = build_timeline(built.topology, built.trace, built.events)
        schemes = [_start_scheme(built, scheme) for scheme in built.spec.schemes]
        for step in timeline.steps:
            with trace.span("timeline.interval", interval=step.index):
                outcomes = {
                    scheme.label: _step_scheme(scheme, step, threshold) for scheme in schemes
                }
                if sinks.on_interval is not None:
                    sinks.on_interval(step, outcomes)
        for scheme in schemes:
            sinks.details[scheme.label] = scheme.runtime.finish(scheme.state)

    return ScenarioResult.collect(
        timeline.steps,
        {scheme.label: scheme.outcomes for scheme in schemes},
        name=built.spec.name,
        config_hash=built.spec.config_hash(),
        times_s=built.trace.timestamps(),
        spec=built.spec.to_dict(),
    )
