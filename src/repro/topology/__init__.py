"""Network topologies: core data structures and the paper's evaluation networks."""

from .base import Arc, Link, Node, Topology, link_key
from .example import build_example, example_paths
from .fattree import build_fattree, core_switches, edge_switches, hosts
from .geant import build_geant, geant_pop_names
from .generators import random_connected_topology, waxman_topology
from .pop_access import build_pop_access, core_routers, metro_routers
from .rocketfuel import (
    build_abovenet,
    build_genuity,
    build_rocketfuel,
    rocketfuel_capacity_for_degree,
)

__all__ = [
    "Arc",
    "Link",
    "Node",
    "Topology",
    "link_key",
    "build_example",
    "example_paths",
    "build_fattree",
    "core_switches",
    "edge_switches",
    "hosts",
    "build_geant",
    "geant_pop_names",
    "random_connected_topology",
    "waxman_topology",
    "build_pop_access",
    "core_routers",
    "metro_routers",
    "build_abovenet",
    "build_genuity",
    "build_rocketfuel",
    "rocketfuel_capacity_for_degree",
]
