"""Tests for the evaluation-topology builders."""

import networkx as nx
import pytest

from repro.exceptions import TopologyError
from repro.topology import (
    build_abovenet,
    build_example,
    build_fattree,
    build_genuity,
    build_pop_access,
    build_rocketfuel,
    core_switches,
    example_paths,
    hosts,
    random_connected_topology,
    waxman_topology,
)
from repro.topology.fattree import pod_of
from repro.topology.geant import GEANT_POPS
from repro.topology.rocketfuel import (
    HIGH_DEGREE_CAPACITY_BPS,
    HIGH_DEGREE_THRESHOLD,
    LOW_DEGREE_CAPACITY_BPS,
)
from repro.units import gbps, mbps

from nx_reference import to_networkx


def connected(topology):
    return nx.is_connected(to_networkx(topology).to_undirected())


# --------------------------------------------------------------------- #
# Fat-tree
# --------------------------------------------------------------------- #
def test_fattree_k4_element_counts(fattree4):
    assert len(core_switches(fattree4)) == 4
    assert len(fattree4.nodes_at_level("aggregation")) == 8
    assert len(fattree4.nodes_at_level("edge")) == 8
    assert len(hosts(fattree4)) == 16
    # 16 host links + 16 edge-agg + 16 agg-core.
    assert fattree4.num_links == 48
    assert connected(fattree4)


def test_fattree_k6_scales():
    topo = build_fattree(6, with_hosts=False)
    assert len(core_switches(topo)) == 9
    assert len(topo.nodes_at_level("aggregation")) == 18
    assert len(topo.nodes_at_level("edge")) == 18
    assert len(hosts(topo)) == 0


def test_fattree_rejects_odd_or_non_positive_arity():
    with pytest.raises(TopologyError):
        build_fattree(3)
    with pytest.raises(TopologyError):
        build_fattree(0)


def test_fattree_switch_degree_is_k(fattree4):
    for switch in fattree4.nodes_at_level("edge") + fattree4.nodes_at_level("aggregation"):
        assert fattree4.degree(switch) == 4
    for switch in core_switches(fattree4):
        assert fattree4.degree(switch) == 4


def test_fattree_hosts_always_powered(fattree4):
    for host in hosts(fattree4):
        assert fattree4.node(host).always_powered
        assert fattree4.node(host).kind == "host"


def test_pod_of_parses_names():
    assert pod_of("agg2_1") == 2
    assert pod_of("edge0_1") == 0
    assert pod_of("host3_1_0") == 3
    with pytest.raises(TopologyError):
        pod_of("core5")


# --------------------------------------------------------------------- #
# GÉANT
# --------------------------------------------------------------------- #
def test_geant_has_23_pops(geant):
    assert geant.num_nodes == 23
    assert set(geant.nodes()) == {name for name, _lat, _lon in GEANT_POPS}
    assert connected(geant)


def test_geant_capacity_hierarchy(geant):
    capacities = {link.capacity_bps for link in geant.links()}
    assert gbps(10) in capacities
    assert gbps(2.5) in capacities
    assert mbps(155) in capacities


def test_geant_latencies_follow_distance(geant):
    # The transatlantic link must be far slower than an intra-European one.
    assert geant.link("UK", "NY").latency_s > 5 * geant.link("DE", "FR").latency_s
    for link in geant.links():
        assert link.latency_s > 0


# --------------------------------------------------------------------- #
# Rocketfuel-like topologies
# --------------------------------------------------------------------- #
def test_abovenet_and_genuity_sizes():
    abovenet = build_abovenet()
    genuity = build_genuity()
    assert abovenet.num_nodes == 22
    assert abovenet.num_links == 42
    assert genuity.num_nodes == 42
    assert genuity.num_links == 110
    assert connected(abovenet)
    assert connected(genuity)


def test_rocketfuel_generation_is_deterministic():
    first = build_abovenet(seed=7)
    second = build_abovenet(seed=7)
    assert sorted(first.link_keys()) == sorted(second.link_keys())


def test_rocketfuel_capacity_rule_applied():
    topo = build_genuity()
    for link in topo.links():
        low_degree = (
            topo.degree(link.u) < HIGH_DEGREE_THRESHOLD
            and topo.degree(link.v) < HIGH_DEGREE_THRESHOLD
        )
        expected = LOW_DEGREE_CAPACITY_BPS if low_degree else HIGH_DEGREE_CAPACITY_BPS
        assert link.capacity_bps == expected


def test_custom_rocketfuel_validation():
    with pytest.raises(TopologyError):
        build_rocketfuel("tiny", num_pops=2, num_links=1)
    with pytest.raises(TopologyError):
        build_rocketfuel("sparse", num_pops=10, num_links=5)
    topo = build_rocketfuel("custom", num_pops=12, num_links=20, seed=3)
    assert topo.num_nodes == 12
    assert topo.num_links == 20
    assert connected(topo)


# --------------------------------------------------------------------- #
# PoP-access hierarchy
# --------------------------------------------------------------------- #
def test_pop_access_structure():
    topo = build_pop_access(num_core=4, num_backbone=6, num_metro=10)
    assert len(topo.nodes_at_level("core")) == 4
    assert len(topo.nodes_at_level("backbone")) == 6
    assert len(topo.nodes_at_level("metro")) == 10
    assert connected(topo)
    # Core full mesh.
    for i in range(4):
        for j in range(i + 1, 4):
            assert topo.has_link(f"core{i}", f"core{j}")
    # Metro routers are dual-homed.
    for metro in topo.nodes_at_level("metro"):
        assert topo.degree(metro) == 2


def test_pop_access_rejects_degenerate_sizes():
    with pytest.raises(TopologyError):
        build_pop_access(num_core=1)
    with pytest.raises(TopologyError):
        build_pop_access(num_backbone=1)
    with pytest.raises(TopologyError):
        build_pop_access(num_metro=0)


# --------------------------------------------------------------------- #
# Figure 3 example
# --------------------------------------------------------------------- #
def test_example_topology_with_and_without_b():
    full = build_example(include_b=True)
    click = build_example(include_b=False)
    assert full.num_nodes == 10
    assert click.num_nodes == 9
    assert full.has_link("B", "E")
    assert not click.has_node("B")
    assert connected(click)


def test_example_paths_are_valid(click_topology):
    paths = example_paths()
    for table in paths.values():
        for nodes in table.values():
            assert click_topology.validate_path(nodes)
    # The always-on path goes through the middle link E-H.
    assert paths["always_on"][("A", "K")] == ["A", "E", "H", "K"]
    assert paths["on_demand"][("C", "K")] == ["C", "F", "J", "K"]


# --------------------------------------------------------------------- #
# Random generators
# --------------------------------------------------------------------- #
def test_random_connected_topology_counts_and_connectivity():
    topo = random_connected_topology(num_nodes=12, num_links=18, seed=5)
    assert topo.num_nodes == 12
    assert topo.num_links == 18
    assert connected(topo)


def test_random_connected_topology_rejects_bad_counts():
    with pytest.raises(TopologyError):
        random_connected_topology(num_nodes=5, num_links=3)
    with pytest.raises(TopologyError):
        random_connected_topology(num_nodes=1, num_links=0)


def test_waxman_topology_connected():
    topo = waxman_topology(num_nodes=20, seed=11)
    assert topo.num_nodes == 20
    assert connected(topo)
