"""Tests for the core topology data structures."""

import networkx as nx
import pytest

from repro.exceptions import (
    DuplicateElementError,
    PathNotFoundError,
    TopologyError,
    UnknownArcError,
    UnknownNodeError,
)
from repro.routing import ospf_invcap_routing
from repro.topology import Topology, link_key
from repro.units import mbps

from nx_reference import to_networkx


def test_add_node_and_link_counts(diamond):
    assert diamond.num_nodes == 4
    assert diamond.num_links == 4
    assert diamond.num_arcs == 8
    assert len(diamond) == 4
    assert "a" in diamond
    assert "z" not in diamond


def test_duplicate_node_rejected(diamond):
    with pytest.raises(DuplicateElementError):
        diamond.add_node("a")


def test_duplicate_link_rejected(diamond):
    with pytest.raises(DuplicateElementError):
        diamond.add_link("a", "b", capacity_bps=mbps(10))
    with pytest.raises(DuplicateElementError):
        diamond.add_link("b", "a", capacity_bps=mbps(10))


def test_self_loop_rejected(diamond):
    with pytest.raises(TopologyError):
        diamond.add_link("a", "a", capacity_bps=mbps(10))


def test_link_to_unknown_node_rejected(diamond):
    with pytest.raises(UnknownNodeError):
        diamond.add_link("a", "zz", capacity_bps=mbps(10))


def test_non_positive_capacity_rejected(diamond):
    with pytest.raises(TopologyError):
        diamond.add_link("b", "c", capacity_bps=0.0)


def test_arcs_are_directed_views_of_links(diamond):
    arc = diamond.arc("a", "b")
    reverse = diamond.arc("b", "a")
    assert arc.capacity_bps == reverse.capacity_bps == mbps(100)
    assert arc.link_key == reverse.link_key == ("a", "b")


def test_asymmetric_capacities_supported():
    topo = Topology()
    topo.add_node("x")
    topo.add_node("y")
    topo.add_link("x", "y", capacity_bps=mbps(100), reverse_capacity_bps=mbps(10))
    assert topo.arc("x", "y").capacity_bps == mbps(100)
    assert topo.arc("y", "x").capacity_bps == mbps(10)


def test_unknown_arc_and_node_lookups_raise(diamond):
    with pytest.raises(UnknownArcError):
        diamond.arc("a", "d")
    with pytest.raises(UnknownArcError):
        diamond.link("a", "d")
    with pytest.raises(UnknownNodeError):
        diamond.node("missing")
    with pytest.raises(UnknownNodeError):
        diamond.neighbors("missing")


def test_neighbors_and_degree(diamond):
    assert sorted(diamond.neighbors("a")) == ["b", "c"]
    assert diamond.degree("a") == 2
    assert diamond.degree("d") == 2


def test_outgoing_arcs_and_incident_links(diamond):
    outgoing = diamond.outgoing_arcs("a")
    assert {arc.dst for arc in outgoing} == {"b", "c"}
    incident = diamond.incident_links("a")
    assert {link.key for link in incident} == {("a", "b"), ("a", "c")}


def test_total_capacity(diamond):
    assert diamond.total_capacity_bps("a") == pytest.approx(mbps(200))


def test_shortest_path_uses_weight(diamond):
    # Both a-b-d and a-c-d have the same hop count; by latency a-b-d wins.
    path = diamond.shortest_path("a", "d", weight="latency")
    assert path == ["a", "b", "d"]
    hops = ospf_invcap_routing(diamond, [("a", "d")], weight="hops").get("a", "d")
    assert len(hops) == 3
    with pytest.raises(ValueError, match="'hops'"):
        diamond.shortest_path("a", "d", weight="hops")


def test_shortest_path_unreachable_raises():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(PathNotFoundError):
        topo.shortest_path("a", "b")


def test_path_latency_and_capacity(diamond):
    assert diamond.path_latency(["a", "b", "d"]) == pytest.approx(0.002)


def test_validate_path(diamond):
    assert diamond.validate_path(["a", "b", "d"])
    assert not diamond.validate_path(["a", "d"])
    assert not diamond.validate_path(["a", "zz"])
    assert not diamond.validate_path([])


def test_is_connected(diamond):
    assert nx.is_connected(to_networkx(diamond).to_undirected())
    lonely = Topology()
    lonely.add_node("x")
    lonely.add_node("y")
    assert not nx.is_connected(to_networkx(lonely).to_undirected())


def test_subgraph_induced_by_nodes(diamond):
    sub = diamond.subgraph(["a", "b", "d"])
    assert sub.num_nodes == 3
    assert sub.has_link("a", "b") and sub.has_link("b", "d")
    assert not sub.has_node("c")


def test_subgraph_with_explicit_links(diamond):
    sub = diamond.subgraph(["a", "b", "c", "d"], active_links=[("a", "b"), ("b", "d")])
    assert sub.num_links == 2
    assert not sub.has_link("a", "c")


def test_subgraph_unknown_node_raises(diamond):
    with pytest.raises(UnknownNodeError):
        diamond.subgraph(["a", "zz"])


def test_invcap_weights_equal_the_networkx_reference(diamond):
    """The index's weight lists hold the very floats the networkx view held."""
    graph = to_networkx(diamond)
    assert graph.number_of_edges() == diamond.num_arcs
    assert graph["a"]["b"]["invcap"] == pytest.approx(1.0 / mbps(100))
    weights = diamond.index().arc_weights
    for name in ("invcap", "latency"):
        assert weights[name] == [graph[u][v][name] for u, v in diamond.arc_keys()]
    assert weights["hops"] == [1.0] * diamond.num_arcs


def test_weight_lists_are_dropped_with_the_index_on_mutation(diamond):
    first = diamond.index().arc_weights
    diamond.add_link("a", "d", capacity_bps=mbps(100))
    second = diamond.index().arc_weights
    assert len(second["invcap"]) == len(first["invcap"]) + 2 == diamond.num_arcs
    assert second["invcap"][-2:] == [1.0 / mbps(100)] * 2


def test_link_key_is_canonical():
    assert link_key("b", "a") == ("a", "b")
    assert link_key("a", "b") == ("a", "b")


def test_nodes_at_level_and_hosts():
    topo = Topology()
    topo.add_node("r1", level="core")
    topo.add_node("h1", kind="host", level="host", always_powered=True)
    topo.add_link("r1", "h1", capacity_bps=mbps(10))
    assert topo.nodes_at_level("core") == ["r1"]
    assert topo.hosts() == ["h1"]
    assert topo.routers() == ["r1"]
    assert topo.node("h1").always_powered


# --------------------------------------------------------------------- #
# The index: one per topology object, dropped by a mutation
# --------------------------------------------------------------------- #
def test_index_is_one_object_until_the_topology_changes(diamond):
    from repro.routing import Path, equal_cost_paths

    index = diamond.index()
    assert diamond.index() is index
    assert index.node_names == diamond.nodes() and index.arc_keys == diamond.arc_keys()
    assert [tuple(index.arc_keys[arc] for arc in arcs) for arcs in index.link_arcs.tolist()] == [
        link.arc_keys() for link in diamond.links()
    ]
    for name, links in zip(index.node_names, index.node_links, strict=True):
        assert [index.link_keys[link] for link in links] == [
            link.key for link in diamond.incident_links(name)
        ]
    for name, out in zip(index.node_names, index.out_adjacency, strict=True):
        assert [index.arc_keys[arc] for arc, _ in out] == [
            arc.key for arc in diamond.outgoing_arcs(name)
        ]
        assert [index.node_names[dst] for _, dst in out] == diamond.neighbors(name)
    compiled = index.compile_path(Path.of("abd"))
    assert index.compile_path(Path.of("abd")) is compiled
    assert [index.arc_keys[arc] for arc in compiled.arc_indices] == [("a", "b"), ("b", "d")]

    # The memos live on the index and go with it.
    assert len(equal_cost_paths(diamond, "a", "d")) == 2
    assert index.ecmp_paths[("a", "d")] == tuple(equal_cost_paths(diamond, "a", "d"))
    diamond.add_link("a", "d", capacity_bps=mbps(100))
    assert diamond.index() is not index and not diamond.index().ecmp_paths
    assert [path.nodes for path in equal_cost_paths(diamond, "a", "d")] == [("a", "d")]
    after_link = diamond.index()
    diamond.add_node("e")
    assert diamond.index() is not after_link
    assert diamond.index().node_names[-1] == "e" and diamond.index().node_links[-1] == []


def test_equal_cost_paths_are_enumerated_once_per_pair(monkeypatch, diamond):
    from repro.routing import ecmp
    from repro.topology import search

    calls, real = [], search.all_shortest_paths

    def counting(index, source, target):
        calls.append((index.node_names[source], index.node_names[target]))
        return real(index, source, target)

    monkeypatch.setattr(search, "all_shortest_paths", counting)
    first = ecmp.equal_cost_paths(diamond, "a", "d")
    assert ecmp.equal_cost_paths(diamond, "a", "d") == first and first is not None
    first.clear()  # the caller's list, not the memo
    assert len(ecmp.equal_cost_paths(diamond, "a", "d")) == 2
    assert calls == [("a", "d")]
    with pytest.raises(PathNotFoundError):
        lonely = Topology("lonely")
        lonely.add_node("x")
        lonely.add_node("y")
        ecmp.equal_cost_paths(lonely, "x", "y")
