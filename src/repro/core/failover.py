"""Computation of the failover paths (Section 4.3).

"Our goal is to construct the failover paths in a way that all paths combined
are not vulnerable to a single link failure ... In the case where it is not
possible to have such three paths, it is still desirable to find the set of
paths that are least likely to be all affected by a single failure.  We have
opted for a single failover path per (O,D) pair."

For every pair the failover path is the shortest path in a graph where links
already used by the pair's always-on and on-demand paths carry a large
penalty; the result is a fully link-disjoint path whenever one exists and the
least-overlapping path otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology, link_key
from ..traffic.matrix import Pair

#: Multiplier applied to the weight of links that existing paths already use.
DISJOINTNESS_PENALTY = 1e6


def compute_failover(
    topology: Topology,
    existing_tables: Sequence[RoutingTable],
    pairs: Optional[Iterable[Pair]] = None,
) -> RoutingTable:
    """Compute one failover path per pair, maximally disjoint from existing paths.

    Args:
        topology: The physical topology.
        existing_tables: The always-on and on-demand tables to protect.
        pairs: Pairs to protect; defaults to the union of pairs present in
            the existing tables.

    Returns:
        A :class:`RoutingTable` with the failover path of every pair for
        which any path exists (disconnected pairs are skipped).
    """
    if pairs is None:
        seen: Set[Pair] = set()
        for table in existing_tables:
            seen.update(table.pairs())
        selected: List[Pair] = sorted(seen)
    else:
        selected = list(pairs)

    graph = topology.to_networkx()

    failover: Dict[Pair, Path] = {}
    for pair in selected:
        origin, destination = pair
        used_links: Set[Tuple[str, str]] = set()
        for table in existing_tables:
            path = table.get(origin, destination)
            if path is not None:
                used_links.update(path.link_keys())

        def penalised_weight(u: str, v: str, data: dict) -> float:
            if link_key(u, v) in used_links:
                return data["invcap"] * DISJOINTNESS_PENALTY
            return data["invcap"]

        try:
            nodes = nx.shortest_path(graph, origin, destination, weight=penalised_weight)
        except nx.NetworkXNoPath:
            continue
        failover[pair] = Path.of(nodes)
    return RoutingTable(failover, name="failover")
