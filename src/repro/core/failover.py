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

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..exceptions import PathNotFoundError
from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology
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

    index = topology.index()
    invcap = index.arc_weights["invcap"]
    link_arcs = index.link_arcs.tolist()

    failover: Dict[Pair, Path] = {}
    for pair in selected:
        origin, destination = pair
        used_links: Set[int] = set()
        for table in existing_tables:
            path = table.get(origin, destination)
            if path is not None:
                used_links.update(
                    index.link_index[key] for key in path.link_keys() if key in index.link_index
                )
        penalised = list(invcap)
        for link in sorted(used_links):
            for arc in link_arcs[link]:
                penalised[arc] = invcap[arc] * DISJOINTNESS_PENALTY
        try:
            nodes = topology.shortest_path(origin, destination, weight=penalised)
        except PathNotFoundError:
            continue
        failover[pair] = Path.of(nodes)
    return RoutingTable(failover, name="failover")
