"""Random topology generators used for tests, ablations and extra scenarios.

The evaluation topologies of the paper are deterministic (GÉANT, Rocketfuel,
PoP-access, fat-tree); the generators here provide additional inputs for
property-based tests and scale studies.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TopologyError
from ..units import mbps
from .base import Topology

DEFAULT_CAPACITY_BPS = mbps(100)
DEFAULT_LATENCY_S = 0.002


def random_connected_topology(
    num_nodes: int,
    num_links: int,
    seed: int = 0,
    capacity_bps: float = DEFAULT_CAPACITY_BPS,
    latency_s: float = DEFAULT_LATENCY_S,
    name: str = "random",
) -> Topology:
    """Generate a random connected topology with exact node and link counts.

    A random spanning tree guarantees connectivity; the remaining links are
    sampled uniformly at random from the absent pairs.

    Raises:
        TopologyError: If the requested link count cannot produce a simple
            connected graph.
    """
    if num_nodes < 2:
        raise TopologyError("need at least 2 nodes")
    min_links = num_nodes - 1
    max_links = num_nodes * (num_nodes - 1) // 2
    if not (min_links <= num_links <= max_links):
        raise TopologyError(
            f"link count {num_links} out of range [{min_links}, {max_links}] "
            f"for {num_nodes} nodes"
        )
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(num_nodes)]
    topo = Topology(name=name)
    for node in names:
        topo.add_node(node)

    # Random spanning tree via random attachment order.
    order = list(rng.permutation(num_nodes))
    for position in range(1, num_nodes):
        node = names[order[position]]
        parent = names[order[int(rng.integers(0, position))]]
        topo.add_link(node, parent, capacity_bps=capacity_bps, latency_s=latency_s)

    while topo.num_links < num_links:
        i, j = rng.choice(num_nodes, size=2, replace=False)
        u, v = names[int(i)], names[int(j)]
        if not topo.has_link(u, v):
            topo.add_link(u, v, capacity_bps=capacity_bps, latency_s=latency_s)
    return topo


def waxman_topology(
    num_nodes: int,
    alpha: float = 0.4,
    beta: float = 0.25,
    seed: int = 0,
    capacity_bps: float = DEFAULT_CAPACITY_BPS,
    name: str = "waxman",
) -> Topology:
    """Generate a Waxman random graph and repair it to be connected.

    Waxman graphs are the classic synthetic ISP-like topologies: link
    probability decays exponentially with distance.  Latencies are derived
    from the embedded coordinates.
    """
    # Imported here: networkx takes longer to import than this module's
    # every other dependency, and only this generator uses it.
    import networkx as nx

    if num_nodes < 2:
        raise TopologyError("need at least 2 nodes")
    graph = nx.waxman_graph(num_nodes, alpha=alpha, beta=beta, seed=seed)
    positions = nx.get_node_attributes(graph, "pos")
    # Repair connectivity by linking consecutive components.
    components = [sorted(c) for c in nx.connected_components(graph)]
    for first, second in zip(components, components[1:], strict=False):
        graph.add_edge(first[0], second[0])
    topo = Topology(name=name)
    for node in graph.nodes:
        topo.add_node(str(node))
    span_km = 3_000.0
    for u, v in graph.edges:
        if u == v:
            continue
        (x1, y1), (x2, y2) = positions[u], positions[v]
        distance_km = float(np.hypot(x1 - x2, y1 - y2)) * span_km + 5.0
        latency_s = distance_km / 200_000.0
        topo.add_link(
            str(u), str(v), capacity_bps=capacity_bps, latency_s=latency_s, length_km=distance_km
        )
    return topo
