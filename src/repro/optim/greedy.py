"""Greedy minimum-subset heuristic (Chiaraviglio et al. [15]).

"The authors propose a heuristic which sorts the devices according to their
power consumption and then tries to power off the devices that are most
power hungry."  The heuristic below follows that recipe: starting from the
fully powered network it repeatedly tries to switch off the most power-hungry
remaining element (first routers, then individual links), keeping an element
off only if the splittable multi-commodity flow LP still accommodates the
demand on what remains.
"""

from __future__ import annotations

from ..power.model import PowerModel
from ..routing.mcf import FlowSession
from ..topology.base import Topology
from ..traffic.matrix import TrafficMatrix
from .solution import EnergyAwareSolution, element_power_coefficients
from .subset import protected_nodes, route_on_subset, shrink_active_subset


def greedy_minimum_subset(
    topology: Topology,
    power_model: PowerModel,
    demands: TrafficMatrix,
    utilisation_limit: float = 1.0,
    session: FlowSession | None = None,
) -> EnergyAwareSolution:
    """Find a small active subset able to carry *demands*, with a single-path
    routing table on it (inverse-capacity shortest paths).

    Args:
        topology: The physical topology.
        power_model: Power coefficients guiding the switch-off order.
        demands: Traffic matrix that must remain routable.
        utilisation_limit: Safety margin applied to every arc capacity.
        session: A flow session of *topology* at this limit, kept by the caller.

    Returns:
        An :class:`EnergyAwareSolution`; ``optimal`` is always ``False``.
    """
    node_power, link_power = element_power_coefficients(topology, power_model)
    keep_on = protected_nodes(topology, demands)

    # Routers, most power-hungry first (chassis + incident ports), then
    # individual links, most power-hungry first (ties in key order).
    def router_power(name: str) -> float:
        incident = sum(link_power[link.key] for link in topology.incident_links(name))
        return node_power[name] + incident

    routers = sorted(topology.routers(), key=router_power, reverse=True)
    links = sorted(topology.link_keys(), key=lambda k: (-link_power[k], k))
    candidates = [name for name in routers if name not in keep_on]
    candidates += links
    active_nodes, active_links = shrink_active_subset(
        topology, demands, utilisation_limit, topology.nodes(), links, candidates, session
    )

    # Drop routers left with no active link (constraint 3), unless protected.
    active_nodes &= keep_on.union(*active_links)

    routing = route_on_subset(topology, demands, active_nodes, active_links, "greedy-subset")
    return EnergyAwareSolution.of(
        topology, power_model, active_nodes, active_links, routing, "greedy-minimum-subset"
    )
