"""Routing substrate: paths, routing tables, OSPF, ECMP, k-shortest paths, MCF."""

from .ecmp import (
    ecmp_active_elements,
    ecmp_max_utilisation,
    equal_cost_paths,
)
from .mcf import MCFResult, is_demand_feasible, solve_mcf
from .ospf import (
    ospf_delays,
    ospf_invcap_routing,
    ospf_latency_routing,
)
from .paths import (
    Path,
    RoutingConfiguration,
    RoutingTable,
    link_loads,
    max_link_utilisation,
)

__all__ = [
    "ecmp_active_elements",
    "ecmp_max_utilisation",
    "equal_cost_paths",
    "MCFResult",
    "is_demand_feasible",
    "solve_mcf",
    "ospf_delays",
    "ospf_invcap_routing",
    "ospf_latency_routing",
    "Path",
    "RoutingConfiguration",
    "RoutingTable",
    "link_loads",
    "max_link_utilisation",
]
