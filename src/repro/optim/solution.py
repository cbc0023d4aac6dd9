"""Common result types and helpers shared by the energy-aware solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..power.accounting import element_power
from ..power.model import PowerModel
from ..routing.paths import RoutingTable
from ..topology.base import Topology


@dataclass
class EnergyAwareSolution:
    """Outcome of an energy-aware routing computation.

    Attributes:
        active_nodes: Nodes that stay powered on.
        active_links: Undirected (canonical) link keys that stay active.
        routing: Single-path routing table over the active subset, when the
            solver produces explicit paths (heuristics that only decide the
            active subset leave this ``None``).
        power_w: Power of the active subset under the solver's power model.
        objective_w: The solver's reported objective value (watts); equals
            ``power_w`` for exact solvers, may differ slightly for rounded
            heuristics.
        optimal: Whether the solver proved optimality.
        solver: Name of the algorithm that produced the solution.
        gap: Relative MIP gap when reported by the solver (0 for heuristics).
    """

    active_nodes: Set[str]
    active_links: Set[Tuple[str, str]]
    routing: Optional[RoutingTable]
    power_w: float
    objective_w: float
    optimal: bool
    solver: str
    gap: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Summary dictionary for experiment reports."""
        return {
            "solver": self.solver,
            "active_nodes": len(self.active_nodes),
            "active_links": len(self.active_links),
            "power_w": self.power_w,
            "optimal": self.optimal,
            "gap": self.gap,
        }


def element_power_coefficients(
    topology: Topology, power_model: PowerModel
) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
    """Per-node chassis and per-link (both directions) power coefficients.

    Returns:
        ``(node_power, link_power)`` where ``node_power[i]`` is ``Pc(i)`` and
        ``link_power[(u, v)]`` is ``Pl(u->v) + Pa(u->v) + Pl(v->u) + Pa(v->u)``
        for the canonical link key ``(u, v)``.  Host nodes and host-side ports
        carry zero cost, mirroring :mod:`repro.power.accounting`.
    """
    table = element_power(topology, power_model)
    link_power: Dict[Tuple[str, str], float] = {}
    for key, arcs in table.arc_w.items():
        total = 0.0
        for port_w, amplifier_w in arcs:
            total += port_w + amplifier_w
        link_power[key] = total
    return dict(table.node_w), link_power
