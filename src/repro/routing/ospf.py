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

import numpy as np

from ..exceptions import ConfigurationError, PathNotFoundError
from ..topology.base import Topology
from ..topology.search import single_source_dijkstra, walk_back
from ..traffic.matrix import Pair, all_pairs
from .paths import Path, RoutingTable


def ospf_invcap_routing(
    topology: Topology,
    pairs: Optional[Iterable[Pair]] = None,
    weight: str = "invcap",
    name: str = "ospf-invcap",
    arc_on: Optional[np.ndarray] = None,
) -> RoutingTable:
    """Compute the OSPF-InvCap routing table.

    Args:
        topology: The network.
        pairs: Origin-destination pairs to install; defaults to all ordered
            pairs of non-host nodes.
        weight: The additive path weight (``"invcap"`` for the Cisco setting,
            ``"latency"`` for delay-based weights, ``"hops"`` for plain hop
            count).
        name: Name for the resulting routing table.
        arc_on: Route over only these arcs of ``topology.index()`` (an
            active subset's ``arc_mask``); default all.

    Returns:
        A :class:`~repro.routing.paths.RoutingTable` with one shortest path
        per pair.

    Raises:
        ConfigurationError: If *weight* is none of the three.
        UnknownNodeError: If a pair's endpoint is not a node.
        PathNotFoundError: If some requested pair is disconnected.
    """
    index = topology.index()
    if weight not in index.arc_weights:
        raise ConfigurationError(f"OSPF weight must be one of {sorted(index.arc_weights)}")
    weights = index.arc_weights[weight]
    selected = list(pairs) if pairs is not None else all_pairs(topology.routers())
    ends = [(index.node_of(origin), index.node_of(destination)) for origin, destination in selected]
    mask = None if arc_on is None else arc_on.tolist()

    # One single-source search per distinct origin: much cheaper than one
    # search per pair on large pair sets.
    preds = {
        source: single_source_dijkstra(index, source, weights, mask)
        for source in sorted({source for source, _ in ends})
    }
    names = index.node_names
    table: Dict[Pair, Path] = {}
    for (origin, destination), (source, target) in zip(selected, ends, strict=True):
        nodes = walk_back(preds[source], source, target)
        if nodes is None:
            raise PathNotFoundError(origin, destination)
        table[(origin, destination)] = Path.of([names[node] for node in nodes])
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
