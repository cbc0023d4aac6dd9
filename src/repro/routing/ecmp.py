"""Equal-Cost Multi-Path (ECMP) routing.

ECMP is the datacenter baseline of Figure 4: traffic is spread over all
equal-cost shortest paths, which keeps every network element busy and hence
powered on — its power curve is flat at (about) 100 % of the original power
regardless of demand.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..exceptions import PathNotFoundError
from ..topology import search
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix, all_pairs
from .paths import Path


def equal_cost_paths(
    topology: Topology,
    origin: str,
    destination: str,
) -> List[Path]:
    """All equal-cost shortest paths between two nodes, by hop count (the
    usual ECMP metric inside a datacenter).

    Enumerated once per pair and topology object (kept on the topology's
    index; a failure view is its own topology object, so has its own).

    Raises:
        UnknownNodeError: If an endpoint is not a node.
        PathNotFoundError: If the destination is unreachable.
    """
    index = topology.index()
    paths = index.ecmp_paths.get((origin, destination))
    if paths is None:
        found = search.all_shortest_paths(index, index.node_of(origin), index.node_of(destination))
        if not found:
            raise PathNotFoundError(origin, destination)
        paths = tuple(Path.of([index.node_names[node] for node in nodes]) for nodes in found)
        index.ecmp_paths[(origin, destination)] = paths
    return list(paths)


def ecmp_max_utilisation(topology: Topology, demands: TrafficMatrix) -> float:
    """Maximum arc utilisation when every demand is split equally over its
    ECMP paths (the shares accumulate into one load vector in arc-index
    order, demand by demand and path by path)."""
    paths: List[Path] = []
    shares: List[float] = []
    for (origin, destination), demand in demands.items():
        if demand > 0.0:
            pair_paths = equal_cost_paths(topology, origin, destination)
            paths += pair_paths
            shares += [demand / len(pair_paths)] * len(pair_paths)
    index = topology.index()
    return index.max_utilisation(index.path_loads(paths, shares))


def ecmp_active_elements(
    topology: Topology,
    demands: Optional[TrafficMatrix] = None,
) -> Tuple[set, set]:
    """Nodes and links kept active by ECMP.

    Every element on any equal-cost shortest path of any pair with positive
    demand stays active.  With all-pairs demand this is essentially the whole
    network, which is why ECMP shows no energy proportionality.
    """
    active_nodes: set = set()
    active_links: set = set()
    if demands is None:
        pairs: Iterable[Pair] = all_pairs(topology.routers())
        demand_of = {pair: 1.0 for pair in pairs}
    else:
        demand_of = {pair: value for pair, value in demands.items()}
    for (origin, destination), demand in demand_of.items():
        if demand <= 0.0:
            continue
        for path in equal_cost_paths(topology, origin, destination):
            active_nodes.update(path.nodes)
            active_links.update(path.link_keys())
    return active_nodes, active_links
