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

from typing import Iterable, Optional, Tuple

from ..power.model import PowerModel
from ..routing.ospf import ospf_invcap_routing
from ..topology.base import Topology, link_key
from ..traffic.matrix import TrafficMatrix
from .pathmilp import PathMilpConfig, solve_path_milp
from .solution import EnergyAwareSolution, solution_power
from .subset import protected_nodes, shrink_active_subset


def lp_relaxation_with_rounding(
    topology: Topology,
    power_model: PowerModel,
    demands: TrafficMatrix,
    k: int = 3,
    utilisation_limit: float = 1.0,
    fixed_on_nodes: Optional[Iterable[str]] = None,
    fixed_on_links: Optional[Iterable[Tuple[str, str]]] = None,
    build_routing: bool = True,
) -> EnergyAwareSolution:
    """Relax, round and repair.

    Args:
        topology: The physical topology.
        power_model: Power coefficients of the objective.
        demands: Traffic matrix to carry.
        k: Candidate paths per pair used by the relaxation.
        utilisation_limit: Safety margin on arc capacities.
        fixed_on_nodes: Nodes that must stay on.
        fixed_on_links: Links that must stay active.
        build_routing: Derive shortest-path routing on the rounded subset.

    Returns:
        An :class:`EnergyAwareSolution`; never proven optimal.
    """
    relaxed = solve_path_milp(
        topology,
        power_model,
        demands,
        config=PathMilpConfig(k=k, utilisation_limit=utilisation_limit, integral_paths=False),
        fixed_on_nodes=fixed_on_nodes,
        fixed_on_links=fixed_on_links,
        solver_name="lp-relaxation",
    )

    # Start from the relaxation's support and try to remove its links, then
    # the nodes that lost all their links (or are simply removable).
    keep_on = protected_nodes(topology, demands, fixed_on_nodes)
    protected_links = {link_key(u, v) for (u, v) in (fixed_on_links or ())}
    candidates = [key for key in sorted(relaxed.active_links) if key not in protected_links]
    candidates += [name for name in sorted(relaxed.active_nodes) if name not in keep_on]
    active_nodes, active_links = shrink_active_subset(
        topology, demands, utilisation_limit, relaxed.active_nodes, relaxed.active_links, candidates
    )

    routing = None
    if build_routing and len(demands) > 0:
        subgraph = topology.subgraph(active_nodes, active_links)
        routing = ospf_invcap_routing(subgraph, pairs=demands.pairs(), name="lp-rounding")

    power = solution_power(topology, power_model, active_nodes, active_links)
    return EnergyAwareSolution(
        active_nodes=active_nodes,
        active_links=active_links,
        routing=routing,
        power_w=power,
        objective_w=power,
        optimal=False,
        solver="lp-relaxation-rounding",
    )
