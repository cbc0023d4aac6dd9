"""OSPF shortest-path routing with Cisco-recommended link weights.

The paper's baseline intradomain routing: "One of the most widely-used
techniques for intradomain routing is OSPF, in which the traffic is routed
through the shortest path according to the link weights.  We use the version
of the protocol advocated by Cisco, where the link weights are set to the
inverse of link capacity."  The paper calls this baseline OSPF-InvCap (or
simply InvCap).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import networkx as nx

from ..exceptions import PathNotFoundError
from ..topology.base import Topology
from ..traffic.matrix import Pair, all_pairs
from .paths import Path, RoutingTable


def shortest_path(
    topology: Topology, origin: str, destination: str, weight: str = "invcap"
) -> Path:
    """Single shortest path between two nodes under the given arc weight."""
    return Path.of(topology.shortest_path(origin, destination, weight=weight))


def ospf_invcap_routing(
    topology: Topology,
    pairs: Optional[Iterable[Pair]] = None,
    weight: str = "invcap",
    name: str = "ospf-invcap",
) -> RoutingTable:
    """Compute the OSPF-InvCap routing table.

    Args:
        topology: The network.
        pairs: Origin-destination pairs to install; defaults to all ordered
            pairs of non-host nodes.
        weight: Arc attribute used as the additive path weight (``"invcap"``
            for the Cisco setting, ``"latency"`` for delay-based weights,
            ``"hops"`` for plain hop count).
        name: Name for the resulting routing table.

    Returns:
        A :class:`~repro.routing.paths.RoutingTable` with one shortest path
        per pair.

    Raises:
        PathNotFoundError: If some requested pair is disconnected.
    """
    graph = topology.to_networkx()
    weight_attr = None if weight in (None, "hops") else weight
    selected = list(pairs) if pairs is not None else all_pairs(topology.routers())

    # Compute single-source shortest paths once per distinct origin: much
    # cheaper than one Dijkstra per pair on large pair sets.
    origins = {origin for origin, _ in selected}
    paths_by_origin: Dict[str, Dict[str, list]] = {}
    for origin in sorted(origins):
        paths_by_origin[origin] = nx.single_source_dijkstra_path(
            graph, origin, weight=weight_attr
        )

    table: Dict[Pair, Path] = {}
    for origin, destination in selected:
        source_paths = paths_by_origin[origin]
        if destination not in source_paths:
            raise PathNotFoundError(origin, destination)
        table[(origin, destination)] = Path.of(source_paths[destination])
    return RoutingTable(table, name=name)


def ospf_latency_routing(
    topology: Topology,
    pairs: Optional[Iterable[Pair]] = None,
    name: str = "ospf-latency",
) -> RoutingTable:
    """OSPF routing with propagation latency as the link weight.

    Used to compute the reference delays ``delay_OSPF(O, D)`` for the
    REsPoNse-lat latency-bound constraint (4).
    """
    return ospf_invcap_routing(topology, pairs=pairs, weight="latency", name=name)


def ospf_delays(
    topology: Topology,
    pairs: Optional[Iterable[Pair]] = None,
) -> Dict[Pair, float]:
    """Per-pair propagation delay of the OSPF-InvCap paths (seconds)."""
    routing = ospf_invcap_routing(topology, pairs=pairs)
    return {pair: path.latency(topology) for pair, path in routing.items()}
