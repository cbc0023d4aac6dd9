"""LP relaxation with rounding (Fisher, Suchara, Rexford [19] style).

Fisher et al. linearise the energy-minimisation problem, solve the LP
relaxation and then apply rounding heuristics to recover an integral on/off
assignment.  The reproduction follows the same outline:

1. solve the path-restricted problem with *continuous* on/off variables,
2. sort links by their fractional activation value,
3. greedily switch off the links with the smallest fractional values, keeping
   a link off only if the splittable MCF still routes the demand.

This baseline is used in ablation benchmarks to contrast the quality/runtime
trade-off of the exact MILP, the greedy heuristic and rounding.
"""

from __future__ import annotations

from ..power.model import PowerModel
from ..routing.mcf import FlowSession
from ..topology.base import Topology
from ..traffic.matrix import TrafficMatrix
from .pathmilp import solve_path_milp
from .solution import EnergyAwareSolution
from .subset import protected_nodes, route_on_subset, shrink_active_subset


def lp_relaxation_with_rounding(
    topology: Topology,
    power_model: PowerModel,
    demands: TrafficMatrix,
    k: int = 3,
    utilisation_limit: float = 1.0,
    session: FlowSession | None = None,
) -> EnergyAwareSolution:
    """Relax, round and repair, then route by shortest paths on the rounded subset.

    Args:
        topology: The physical topology.
        power_model: Power coefficients of the objective.
        demands: Traffic matrix to carry.
        k: Candidate paths per pair used by the relaxation.
        utilisation_limit: Safety margin on arc capacities.
        session: A flow session of *topology* at this limit, kept by the caller.

    Returns:
        An :class:`EnergyAwareSolution`; never proven optimal.
    """
    relaxed = solve_path_milp(
        topology,
        power_model,
        demands,
        k=k,
        utilisation_limit=utilisation_limit,
        relaxed=True,
        solver_name="lp-relaxation",
    )

    # Start from the relaxation's support and try to remove its links, then
    # the nodes that lost all their links (or are simply removable).
    keep_on = protected_nodes(topology, demands)
    candidates = sorted(relaxed.active_links)
    candidates += [name for name in sorted(relaxed.active_nodes) if name not in keep_on]
    active_nodes, active_links = shrink_active_subset(
        topology,
        demands,
        utilisation_limit,
        relaxed.active_nodes,
        relaxed.active_links,
        candidates,
        session,
    )

    routing = route_on_subset(topology, demands, active_nodes, active_links, "lp-rounding")
    return EnergyAwareSolution.of(
        topology, power_model, active_nodes, active_links, routing, "lp-relaxation-rounding"
    )
