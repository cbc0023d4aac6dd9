"""Network topologies: core data structures and the paper's evaluation networks."""

from .base import Arc, Link, Node, Topology, link_key
from .example import build_example, example_paths
from .fattree import build_fattree, core_switches, hosts
from .geant import build_geant
from .generators import random_connected_topology, waxman_topology
from .index import CompiledPath, TopologyIndex
from .pop_access import build_pop_access
from .rocketfuel import (
    build_abovenet,
    build_genuity,
    build_rocketfuel,
)

__all__ = [
    "Arc",
    "Link",
    "Node",
    "Topology",
    "TopologyIndex",
    "CompiledPath",
    "link_key",
    "build_example",
    "example_paths",
    "build_fattree",
    "core_switches",
    "hosts",
    "build_geant",
    "random_connected_topology",
    "waxman_topology",
    "build_pop_access",
    "build_abovenet",
    "build_genuity",
    "build_rocketfuel",
]
