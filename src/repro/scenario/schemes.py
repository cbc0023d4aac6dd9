"""Registered evaluation schemes: what gets compared on a scenario's stack.

Every shipped scheme is a :class:`~repro.scenario.timeline.SchemeRuntime`
subclass registered under ``("scheme", name)``: ``start(scenario)`` builds
its long-lived state once (REsPoNse plans, warm-start memory),
``step(state, t, matrix, view)`` advances one interval against the
failure-adjusted topology view.  The timeline engine drives the runtimes;
`run_scenario` aggregates their per-interval outcomes.  A runtime subclass
is the only scheme form: the timeline rejects any other registered
component.

Computations that scenarios built as one group can share (REsPoNse plans,
GreenTE solves, ECMP expansions, the always-on subset) go through
``scenario.shared`` — the group's
:class:`~repro.scenario.timeline.GroupComputeCache`, always present (a
scenario built on its own is the group of one).  Every memoised value is a
pure function of its key's inputs, so a hit returns exactly what a fresh
computation would; every path-restricted solver draws its candidates from
the process's one :class:`~repro.routing.ksp.CandidatePaths` provider per
network content, whatever group asks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.always_on import compute_always_on
from ..core.planner import activate_paths
from ..core.response import (
    ResponseConfig,
    build_response_plan,
    check_k,
    check_utilisation_limit,
)
from ..exceptions import ConfigurationError, InfeasibleError, SolverError, TopologyError
from ..obs import trace
from ..optim.elastictree import elastictree_subset
from ..optim.greedy import greedy_minimum_subset
from ..optim.greente import greente_heuristic
from ..optim.lp_relax import lp_relaxation_with_rounding
from ..optim.pathmilp import solve_path_milp
from ..optim.solution import EnergyAwareSolution
from ..outcome import IntervalOutcome
from ..power.accounting import network_power
from ..routing.ecmp import ecmp_active_elements, ecmp_max_utilisation
from ..routing.mcf import FlowSession
from ..routing.paths import RoutingConfiguration
from ..simulator.failures import TopologyView
from ..topology.base import Topology
from ..traffic.matrix import TrafficMatrix
from .registry import register
from .timeline import SchemeRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import BuiltScenario


def _configuration_of(solution: EnergyAwareSolution) -> RoutingConfiguration:
    return RoutingConfiguration(
        frozenset(solution.active_nodes), frozenset(solution.active_links)
    )


# --------------------------------------------------------------------- #
# Per-interval solver runtimes (GreenTE, ElasticTree, greedy, LP, MILP)
# --------------------------------------------------------------------- #


@dataclass
class _ReplayState:
    """Warm-start state shared by the per-interval solver runtimes."""

    scenario: "BuiltScenario"
    solutions: List[EnergyAwareSolution] = field(default_factory=list)
    configurations: List[RoutingConfiguration] = field(default_factory=list)
    prev_matrix: Optional[TrafficMatrix] = None
    prev_view: Optional[TopologyView] = None
    #: A flow session per topology object (a failure view is its own), this
    #: run only.
    sessions: Dict[Topology, FlowSession] = field(default_factory=dict)

    def flow_session(self, view: TopologyView, matrix: TrafficMatrix, limit: float) -> FlowSession:
        """The run's session of the view's topology, opened on *matrix* if new."""
        topology = view.topology
        if topology not in self.sessions:
            self.sessions[topology] = FlowSession(topology, matrix, limit)
        return self.sessions[topology]


class SolverReplayRuntime(SchemeRuntime):
    """Base runtime for schemes that re-solve an optimisation per interval.

    Incremental behaviour on top of the cold-start loop of old:

    * **unchanged-input memoisation** — when an interval repeats the
      previous matrix on the same topology view, the previous solution is
      reused verbatim (bit-identical, no solve);
    * **failure awareness** — under failures the solver runs on the
      surviving topology (:attr:`TopologyView.topology`) with the demand
      matrix restricted to still-connected pairs;
    * **solver-state reuse** — candidate paths come from the process's
      shared provider (:meth:`CandidatePaths.shared`) and survive across
      steps and runs; the subset-search runtimes keep one flow-LP session per
      topology object (model and basis, never answers) for the run.
    """

    def start(self, scenario: "BuiltScenario") -> _ReplayState:
        return _ReplayState(scenario=scenario)

    def solve(
        self, state: _ReplayState, matrix: TrafficMatrix, view: TopologyView
    ) -> EnergyAwareSolution:
        """Solve one interval (subclasses implement the actual solver)."""
        raise NotImplementedError

    def step(
        self,
        state: _ReplayState,
        time_s: float,
        matrix: TrafficMatrix,
        view: TopologyView,
    ) -> IntervalOutcome:
        if (
            state.solutions
            and state.prev_view is view
            and state.prev_matrix == matrix
        ):
            solution = state.solutions[-1]
        else:
            effective = matrix
            if view.has_failures:
                effective = matrix.restricted_to(
                    view.connected_pairs(matrix.pairs())
                )
            with trace.span("scheme.solve", solver=type(self).__name__):
                solution = self.solve(state, effective, view)
        configuration = _configuration_of(solution)
        recomputed = bool(state.configurations) and (
            configuration != state.configurations[-1]
        )
        state.solutions.append(solution)
        state.configurations.append(configuration)
        state.prev_matrix = matrix
        state.prev_view = view
        return IntervalOutcome(
            power_percent=100.0 * solution.power_w / state.scenario.baseline_power_w,
            recomputed=recomputed,
        )

    def finish(self, state: _ReplayState) -> Dict[str, Any]:
        return {
            "solutions": state.solutions,
            "configurations": state.configurations,
        }


@register("scheme", "greente")
class GreenTERuntime(SolverReplayRuntime):
    """GreenTE-style greedy recomputation on every interval (shared candidates)."""

    def __init__(self, k: int = 5, utilisation_limit: float = 1.0) -> None:
        self.k = check_k(k)
        self.utilisation_limit = check_utilisation_limit(utilisation_limit)

    def solve(
        self, state: _ReplayState, matrix: TrafficMatrix, view: TopologyView
    ) -> EnergyAwareSolution:
        scenario = state.scenario

        def compute() -> EnergyAwareSolution:
            return greente_heuristic(
                view.topology,
                scenario.power_model,
                matrix,
                k=self.k,
                utilisation_limit=self.utilisation_limit,
                allow_overload=True,
                ordering="stable",
            )

        # The heuristic is a pure function of these inputs; TrafficMatrix
        # hashes by content, so points sharing a demand matrix share the
        # solve; the topology/power objects key by identity.
        return scenario.shared.memo(
            (
                "greente-solve",
                self.k,
                self.utilisation_limit,
                view.topology,
                scenario.power_model,
                matrix,
            ),
            compute,
        )


@register("scheme", "elastictree")
class ElasticTreeRuntime(SolverReplayRuntime):
    """ElasticTree's per-interval minimal subset.

    On a fat-tree this is the pod-structured greedy of Heller et al.; on a
    general topology (where ElasticTree's formal model does not apply) the
    equivalent topology-agnostic greedy minimum subset stands in, so the
    scheme composes with any registered topology.
    """

    def __init__(self, utilisation_limit: float = 1.0) -> None:
        self.utilisation_limit = check_utilisation_limit(utilisation_limit)

    def solve(
        self, state: _ReplayState, matrix: TrafficMatrix, view: TopologyView
    ) -> EnergyAwareSolution:
        scenario = state.scenario
        try:
            return elastictree_subset(
                view.topology,
                scenario.power_model,
                matrix,
                utilisation_limit=self.utilisation_limit,
            )
        except TopologyError:
            return greedy_minimum_subset(
                view.topology,
                scenario.power_model,
                matrix,
                utilisation_limit=self.utilisation_limit,
                session=state.flow_session(view, matrix, self.utilisation_limit),
            )


@register("scheme", "greedy")
class GreedyRuntime(SolverReplayRuntime):
    """Topology-agnostic greedy minimum subset per interval."""

    def __init__(self, utilisation_limit: float = 1.0) -> None:
        self.utilisation_limit = check_utilisation_limit(utilisation_limit)

    def solve(
        self, state: _ReplayState, matrix: TrafficMatrix, view: TopologyView
    ) -> EnergyAwareSolution:
        return greedy_minimum_subset(
            view.topology,
            state.scenario.power_model,
            matrix,
            utilisation_limit=self.utilisation_limit,
            session=state.flow_session(view, matrix, self.utilisation_limit),
        )


@register("scheme", "lp-relax")
class LpRelaxRuntime(SolverReplayRuntime):
    """LP relaxation with rounding and repair per interval."""

    def __init__(self, k: int = 3, utilisation_limit: float = 1.0) -> None:
        self.k = check_k(k)
        self.utilisation_limit = check_utilisation_limit(utilisation_limit)

    def solve(
        self, state: _ReplayState, matrix: TrafficMatrix, view: TopologyView
    ) -> EnergyAwareSolution:
        return lp_relaxation_with_rounding(
            view.topology,
            state.scenario.power_model,
            matrix,
            k=self.k,
            utilisation_limit=self.utilisation_limit,
            session=state.flow_session(view, matrix, self.utilisation_limit),
        )


@register("scheme", "pathmilp")
class PathMilpRuntime(SolverReplayRuntime):
    """The exact path-restricted MILP per interval (slow; small instances)."""

    def __init__(self, k: int = 3, utilisation_limit: float = 1.0) -> None:
        self.k = check_k(k)
        self.utilisation_limit = check_utilisation_limit(utilisation_limit)

    def solve(
        self, state: _ReplayState, matrix: TrafficMatrix, view: TopologyView
    ) -> EnergyAwareSolution:
        scenario = state.scenario
        return solve_path_milp(
            view.topology,
            scenario.power_model,
            matrix,
            k=self.k,
            utilisation_limit=self.utilisation_limit,
        )


@register("scheme", "optimal")
class OptimalRuntime(SolverReplayRuntime):
    """Per-interval optimal recomputation lower bound.

    Tries the exact MILP and falls back to the traffic-aware GreenTE
    heuristic on the solver's documented failures — no incumbent within the
    budget (``SolverError``) or an infeasible instance (``InfeasibleError``)
    — the behaviour the Figure 6 lower bound always had.  The enclosing
    ``scheme.solve`` span then carries ``fallback=True``; anything else is
    a bug and propagates.
    """

    def __init__(self, k: int = 3) -> None:
        self.k = check_k(k)

    def solve(
        self, state: _ReplayState, matrix: TrafficMatrix, view: TopologyView
    ) -> EnergyAwareSolution:
        scenario = state.scenario
        try:
            return solve_path_milp(
                view.topology,
                scenario.power_model,
                matrix,
                k=self.k,
                solver_name="optimal",
            )
        except (InfeasibleError, SolverError):
            enclosing = trace.current_span()
            if enclosing is not None:
                enclosing.set(fallback=True)
            return greente_heuristic(
                view.topology,
                scenario.power_model,
                matrix,
                k=self.k,
                allow_overload=True,
            )


# --------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------- #


@register("scheme", "ospf")
class OSPFRuntime(SchemeRuntime):
    """Plain OSPF keeps every surviving element busy: 100 % of the original
    power on the intact network, the surviving subset's power under failures."""

    def start(self, scenario: "BuiltScenario") -> "BuiltScenario":
        return scenario

    def step(
        self,
        state: "BuiltScenario",
        time_s: float,
        matrix: TrafficMatrix,
        view: TopologyView,
    ) -> IntervalOutcome:
        if not view.has_failures:
            return IntervalOutcome(power_percent=100.0)
        surviving = view.topology
        breakdown = network_power(
            state.topology,
            state.power_model,
            set(surviving.nodes()),
            set(surviving.link_keys()),
        )
        return IntervalOutcome(
            power_percent=100.0 * breakdown.total_w / state.baseline_power_w
        )


@register("scheme", "ecmp")
class ECMPRuntime(SchemeRuntime):
    """ECMP wakes every element on any shortest path of a demanded pair."""

    def start(self, scenario: "BuiltScenario") -> _ReplayState:
        return _ReplayState(scenario=scenario)

    def step(
        self,
        state: _ReplayState,
        time_s: float,
        matrix: TrafficMatrix,
        view: TopologyView,
    ) -> IntervalOutcome:
        scenario = state.scenario
        effective = matrix
        if view.has_failures:
            effective = matrix.restricted_to(view.connected_pairs(matrix.pairs()))

        def compute() -> Tuple[Any, Any, float, float]:
            nodes, links = ecmp_active_elements(view.topology, effective)
            breakdown = network_power(
                scenario.topology, scenario.power_model, nodes, links
            )
            return (
                frozenset(nodes),
                frozenset(links),
                breakdown.total_w,
                ecmp_max_utilisation(view.topology, effective),
            )

        nodes, links, total_w, max_utilisation = scenario.shared.memo(
            (
                "ecmp-core",
                view.topology,
                scenario.topology,
                scenario.power_model,
                effective,
            ),
            compute,
        )
        configuration = RoutingConfiguration(nodes, links)
        recomputed = bool(state.configurations) and (
            configuration != state.configurations[-1]
        )
        state.configurations.append(configuration)
        return IntervalOutcome(
            power_percent=100.0 * total_w / scenario.baseline_power_w,
            max_utilisation=max_utilisation,
            recomputed=recomputed,
        )


# --------------------------------------------------------------------- #
# REsPoNse: precomputed always-on / on-demand / failover paths
# --------------------------------------------------------------------- #

#: ResponseConfig fields, all settable straight from scheme params.
_RESPONSE_CONFIG_FIELDS = tuple(spec.name for spec in dataclasses.fields(ResponseConfig))


@dataclass
class _ResponseState:
    """Per-replay state of a REsPoNse runtime: the installed plan."""

    scenario: "BuiltScenario"
    plan: Any
    activations: List[Any] = field(default_factory=list)


class ResponseRuntime(SchemeRuntime):
    """REsPoNse: the plan is precomputed once, steps only switch activation.

    ``start`` runs the complete offline pipeline (always-on, on-demand,
    failover paths); every ``step`` merely activates installed paths for the
    interval's demand — the online behaviour the paper claims reacts in
    seconds — against the spec's utilisation SLO, the one the timeline judges
    violations by.  On failure events the activation excludes paths crossing
    failed elements and engages the plan's failover table, so no step ever
    recomputes a path.
    """

    #: The :class:`ResponseConfig` defaults a registered name differs in.
    config_defaults: Dict[str, Any] = {}

    def __init__(self, **config_params: Any) -> None:
        unknown = set(config_params) - set(_RESPONSE_CONFIG_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown response scheme parameters {sorted(unknown)}; "
                f"supported: {', '.join(_RESPONSE_CONFIG_FIELDS)}"
            )
        self.config = ResponseConfig(**{**self.config_defaults, **config_params})

    def start(self, scenario: "BuiltScenario") -> _ResponseState:
        # Only the peak / heuristic on-demand methods read the peak estimate.
        peak = (
            scenario.peak_matrix()
            if self.config.on_demand_method in ("peak", "heuristic")
            else None
        )

        def compute() -> Any:
            with trace.span("response.plan", scenario=scenario.spec.name):
                return build_response_plan(
                    scenario.topology,
                    scenario.power_model,
                    pairs=scenario.pairs,
                    peak_matrix=peak,
                    config=self.config,
                )

        # The offline pipeline depends only on these inputs, so points
        # of a group (same topology/power/pairs/peak) share one plan
        # build; nothing mutates a plan once built.
        plan = scenario.shared.memo(
            (
                "response-plan",
                repr(self.config),
                scenario.topology,
                scenario.power_model,
                tuple(scenario.pairs),
                peak,
            ),
            compute,
        )
        return _ResponseState(scenario=scenario, plan=plan)

    def step(
        self,
        state: _ResponseState,
        time_s: float,
        matrix: TrafficMatrix,
        view: TopologyView,
    ) -> IntervalOutcome:
        scenario = state.scenario
        activation = activate_paths(
            scenario.topology,
            scenario.power_model,
            state.plan,
            matrix,
            utilisation_threshold=scenario.spec.utilisation_threshold,
            view=view,
        )
        state.activations.append(activation)
        return IntervalOutcome(
            power_percent=activation.power_percent,
            max_utilisation=activation.max_utilisation,
        )

    def finish(self, state: _ResponseState) -> Dict[str, Any]:
        return {"plan": state.plan, "activations": state.activations}


register("scheme", "response")(ResponseRuntime)


@register("scheme", "response-lat")
class ResponseLatRuntime(ResponseRuntime):
    """REsPoNse with the latency-bounded always-on paths (REsPoNse-lat)."""

    config_defaults = {"latency_beta": 0.25}


@register("scheme", "response-ospf")
class ResponseOspfRuntime(ResponseRuntime):
    """REsPoNse whose on-demand table is the plain OSPF table."""

    config_defaults = {"on_demand_method": "ospf"}


@register("scheme", "response-heuristic")
class ResponseHeuristicRuntime(ResponseRuntime):
    """REsPoNse with traffic-aware (GreenTE-computed) on-demand paths."""

    config_defaults = {"on_demand_method": "heuristic"}


@register("scheme", "always-on")
class AlwaysOnRuntime(SchemeRuntime):
    """Only the always-on subset, regardless of demand (its power floor).

    The subset is static by definition, so the runtime emits a constant
    series — also under events (the floor does not react; that is the
    point of the comparison).
    """

    def __init__(self, k: int = 3, latency_beta: Optional[float] = None) -> None:
        self.config = ResponseConfig(k=k, latency_beta=latency_beta)

    def start(self, scenario: "BuiltScenario") -> Dict[str, Any]:
        def compute() -> Any:
            return compute_always_on(
                scenario.topology,
                scenario.power_model,
                self.config,
                pairs=scenario.pairs,
            )

        always_on = scenario.shared.memo(
            (
                "always-on",
                repr(self.config),
                scenario.topology,
                scenario.power_model,
                tuple(scenario.pairs),
            ),
            compute,
        )
        return {
            "always_on": always_on,
            "percent": 100.0 * always_on.power_w / scenario.baseline_power_w,
        }

    def step(
        self,
        state: Dict[str, Any],
        time_s: float,
        matrix: TrafficMatrix,
        view: TopologyView,
    ) -> IntervalOutcome:
        return IntervalOutcome(power_percent=state["percent"])

    def finish(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return {"always_on": state["always_on"]}
