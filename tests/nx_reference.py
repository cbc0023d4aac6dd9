"""networkx as the reference for the path searches of ``repro.topology.search``.

The library itself no longer imports networkx outside the random-topology
generators; the graph view and the networkx calls it used to make live here,
for the differential battery (``test_search.py``) and the tests that check a
property on a networkx graph.
"""

import itertools

import networkx as nx

from repro.exceptions import PathNotFoundError
from repro.routing.paths import Path


def to_networkx(topology):
    """A directed networkx view of *topology*, built as ``Topology.to_networkx``
    built it: nodes in insertion order, then every arc in ``arc_keys()`` order
    with ``capacity`` (bps), ``latency`` (s) and ``invcap`` (``1.0 / capacity``)."""
    graph = nx.DiGraph(name=topology.name)
    for name in topology.nodes():
        record = topology.node(name)
        graph.add_node(name, kind=record.kind, level=record.level)
    for arc in topology.arcs():
        graph.add_edge(
            arc.src,
            arc.dst,
            capacity=arc.capacity_bps,
            latency=arc.latency_s,
            invcap=1.0 / arc.capacity_bps,
        )
    return graph


def k_shortest_paths(topology, origin, destination, k):
    """The *k* shortest simple paths by inverse capacity, as networkx's
    ``shortest_simple_paths`` lists them."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    generator = nx.shortest_simple_paths(to_networkx(topology), origin, destination, "invcap")
    try:
        return [Path.of(nodes) for nodes in itertools.islice(generator, k)]
    except nx.NetworkXNoPath:
        raise PathNotFoundError(origin, destination) from None
