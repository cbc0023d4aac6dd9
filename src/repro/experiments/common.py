"""Shared helpers for the per-figure experiment drivers.

The per-interval GreenTE replay used by the recomputation-rate and
energy-critical-path analyses is implemented once, in
:func:`repro.scenario.schemes.greente_replay` (one
:class:`~repro.routing.ksp.CandidatePaths` provider per replay, shared
across intervals); the helpers here are thin wrappers keeping the
historical driver-facing signatures.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..optim.greente import greente_heuristic
from ..optim.solution import EnergyAwareSolution
from ..power.model import PowerModel
from ..routing.paths import RoutingTable
from ..scenario.schemes import greente_replay
from ..scenario.timeline import GroupComputeCache
from ..topology.base import Topology
from ..traffic.matrix import TrafficMatrix
from ..traffic.replay import TrafficTrace

#: Signature of a per-interval energy-aware solver.
IntervalSolver = Callable[[Topology, PowerModel, TrafficMatrix], EnergyAwareSolution]


def greente_interval_solver(
    k: int = 5,
    utilisation_limit: float = 1.0,
    ordering: str = "demand",
) -> IntervalSolver:
    """A fast per-interval solver for trace replays.

    The recomputation-rate and energy-critical-path analyses (Figures 1b, 2a,
    2b) must recompute an energy-aware routing for every interval of a long
    trace.  The exact MILP would make that prohibitively slow, so — exactly
    like the state-of-the-art heuristics the paper discusses — the replay uses
    the GreenTE-style greedy solver.  The returned solver keeps one
    candidate-path provider per topology object across calls, so replaying
    many intervals enumerates each pair's k shortest paths once (the same
    provider backs :func:`per_interval_solutions` and the registered
    ``greente`` scenario scheme).
    """
    shared = GroupComputeCache()

    def solver(
        topology: Topology, power_model: PowerModel, demands: TrafficMatrix
    ) -> EnergyAwareSolution:
        return greente_heuristic(
            topology,
            power_model,
            demands,
            k=k,
            utilisation_limit=utilisation_limit,
            candidate_paths=shared.candidate_paths(topology),
            allow_overload=True,
            ordering=ordering,
        )

    return solver


def per_interval_solutions(
    topology: Topology,
    power_model: PowerModel,
    trace: TrafficTrace,
    k: int = 5,
    utilisation_limit: float = 1.0,
) -> List[EnergyAwareSolution]:
    """Recompute the energy-aware routing for every interval of a trace.

    Each pair's k shortest paths are enumerated once and reused across
    intervals, which keeps long replays tractable.
    """
    return greente_replay(
        topology,
        power_model,
        trace.matrices(),
        k=k,
        utilisation_limit=utilisation_limit,
        ordering="stable",
    )


def routings_of(solutions: Sequence[EnergyAwareSolution]) -> List[RoutingTable]:
    """The routing table of each per-interval solution."""
    tables: List[RoutingTable] = []
    for solution in solutions:
        if solution.routing is None:
            raise ValueError("per-interval solution carries no routing table")
        tables.append(solution.routing)
    return tables
