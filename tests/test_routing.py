"""Tests for the routing substrate: paths, tables, OSPF, ECMP, k-SP, MCF."""

import numpy as np
import pytest

from repro.exceptions import PathNotFoundError, RoutingError
from repro.routing import (
    Path,
    RoutingConfiguration,
    RoutingTable,
    ecmp_active_elements,
    ecmp_max_utilisation,
    equal_cost_paths,
    is_demand_feasible,
    link_loads,
    max_link_utilisation,
    ospf_delays,
    ospf_invcap_routing,
    ospf_latency_routing,
    solve_mcf,
)
from repro.routing.ksp import CandidatePaths
from repro.routing.mcf import FlowSession
from repro.topology import Topology
from repro.traffic import TrafficMatrix
from repro.units import mbps


# --------------------------------------------------------------------- #
# Path and RoutingTable
# --------------------------------------------------------------------- #
def test_path_basics(diamond):
    path = Path.of(["a", "b", "d"])
    assert path.origin == "a"
    assert path.destination == "d"
    assert path.num_hops == 2
    assert path.arc_keys() == [("a", "b"), ("b", "d")]
    assert path.link_keys() == [("a", "b"), ("b", "d")]
    assert path.latency(diamond) == pytest.approx(0.002)
    assert path.is_valid(diamond)
    assert list(path) == ["a", "b", "d"]
    assert len(path) == 3


def test_path_rejects_duplicates_and_empty():
    with pytest.raises(RoutingError):
        Path.of(["a", "b", "a"])
    with pytest.raises(RoutingError):
        Path(())


def test_routing_table_construction_and_queries(diamond):
    table = RoutingTable({("a", "d"): ["a", "b", "d"], ("d", "a"): Path.of(["d", "c", "a"])})
    assert table.path("a", "d").nodes == ("a", "b", "d")
    assert table.get("a", "b") is None
    assert len(table) == 2
    assert ("a", "d") in table
    assert table.used_nodes() == {"a", "b", "c", "d"}
    assert ("a", "b") in table.used_links()
    assert table.validate(diamond)
    with pytest.raises(RoutingError):
        table.path("a", "b")


def test_routing_table_rejects_mismatched_pair():
    with pytest.raises(RoutingError):
        RoutingTable({("a", "d"): ["a", "b", "c"]})


def test_routing_table_merge_and_restrict():
    table = RoutingTable({("a", "d"): ["a", "c", "d"], ("d", "a"): ["d", "b", "a"]})
    restricted = table.restricted_to([("d", "a")])
    assert restricted.pairs() == [("d", "a")]


def test_link_loads_and_utilisation(diamond, diamond_demands):
    table = RoutingTable({("a", "d"): ["a", "b", "d"], ("d", "a"): ["d", "c", "a"]})
    index = diamond.index()
    loads = link_loads(diamond, table, diamond_demands)
    assert loads.shape == (index.num_arcs,)
    assert loads[index.arc_index[("a", "b")]] == pytest.approx(mbps(40))
    assert loads[index.arc_index[("d", "c")]] == pytest.approx(mbps(10))
    assert loads[index.arc_index[("b", "a")]] == 0.0
    utilisations = loads / index.arc_capacity
    assert utilisations[index.arc_index[("a", "b")]] == pytest.approx(0.4)
    assert max_link_utilisation(diamond, table, diamond_demands) == pytest.approx(0.4)
    assert max_link_utilisation(diamond, table, diamond_demands.scaled(3.0)) > 1.0


def test_uncovered_pairs(diamond, diamond_demands):
    # A pair with demand but no installed path loads nothing.
    table = RoutingTable({("a", "d"): ["a", "b", "d"]})
    index = diamond.index()
    loads = link_loads(diamond, table, diamond_demands)
    ab, bd = index.arc_index[("a", "b")], index.arc_index[("b", "d")]
    assert loads[ab] == loads[bd] == pytest.approx(mbps(40))
    assert loads.sum() == pytest.approx(2 * mbps(40))


def test_routing_configuration_equality_and_dominance(diamond, diamond_demands):
    table = RoutingTable({("a", "d"): ["a", "b", "d"], ("d", "a"): ["d", "c", "a"]})
    def configuration(table):
        return RoutingConfiguration(
            frozenset(table.used_nodes()), frozenset(table.used_links())
        )

    config_all = configuration(table)
    config_demand = configuration(table.restricted_to(diamond_demands.pairs()))
    assert config_all == config_demand
    assert hash(config_all) == hash(config_demand)
    # With one pair's elements asleep the configuration differs.
    assert configuration(table.restricted_to([("d", "a")])) != config_all


# --------------------------------------------------------------------- #
# OSPF, ECMP, k-shortest paths
# --------------------------------------------------------------------- #
def test_ospf_invcap_prefers_high_capacity():
    topo = Topology()
    for name in "xyz":
        topo.add_node(name)
    topo.add_link("x", "z", capacity_bps=mbps(10))      # direct but slow
    topo.add_link("x", "y", capacity_bps=mbps(1000))
    topo.add_link("y", "z", capacity_bps=mbps(1000))
    routing = ospf_invcap_routing(topo, pairs=[("x", "z")])
    assert routing.path("x", "z").nodes == ("x", "y", "z")


def test_ospf_routing_covers_all_pairs(geant):
    routing = ospf_invcap_routing(geant)
    assert len(routing) == 23 * 22
    assert routing.validate(geant)


def test_ospf_latency_routing_and_delays(diamond):
    routing = ospf_latency_routing(diamond, pairs=[("a", "d")])
    assert routing.path("a", "d").nodes == ("a", "b", "d")
    delays = ospf_delays(diamond, pairs=[("a", "d")])
    assert delays[("a", "d")] > 0


def test_ospf_unreachable_raises():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(PathNotFoundError):
        ospf_invcap_routing(topo, pairs=[("a", "b")])


def test_ecmp_splits_over_equal_paths(diamond):
    paths = equal_cost_paths(diamond, "a", "d")
    assert len(paths) == 2
    demands = TrafficMatrix({("a", "d"): mbps(80)})
    index = diamond.index()
    loads = index.path_loads(paths, [mbps(80) / len(paths)] * len(paths))
    assert loads[index.arc_index[("a", "b")]] == pytest.approx(mbps(40))
    assert loads[index.arc_index[("a", "c")]] == pytest.approx(mbps(40))
    assert ecmp_max_utilisation(diamond, demands) == pytest.approx(0.4)


def test_ecmp_active_elements_cover_everything_used(diamond):
    demands = TrafficMatrix({("a", "d"): mbps(10)})
    nodes, links = ecmp_active_elements(diamond, demands)
    assert nodes == {"a", "b", "c", "d"}
    assert len(links) == 4


def test_k_shortest_paths_ordering(diamond):
    paths = CandidatePaths(diamond).for_pairs([("a", "d")], 3)[("a", "d")]
    assert len(paths) == 2  # only two simple paths exist
    assert paths[0].nodes == ("a", "b", "d")
    with pytest.raises(ValueError):
        CandidatePaths(diamond).for_pairs([("a", "d")], 0)


# --------------------------------------------------------------------- #
# Multi-commodity flow
# --------------------------------------------------------------------- #
def test_mcf_feasible_and_loads(diamond):
    demands = TrafficMatrix({("a", "d"): mbps(150)})
    result = solve_mcf(diamond, demands)
    # 150 Mb/s does not fit on one 100 Mb/s path but fits on two.
    assert result.feasible
    assert result.max_utilisation <= 1.0 + 1e-6
    loads = dict(zip(diamond.index().arc_keys, result.arc_loads, strict=True))
    assert loads[("a", "b")] + loads[("a", "c")] == pytest.approx(mbps(150), rel=1e-6)


def test_mcf_infeasible_when_capacity_exceeded(diamond):
    demands = TrafficMatrix({("a", "d"): mbps(250)})
    assert not is_demand_feasible(diamond, demands)


def test_mcf_respects_active_subset(diamond):
    demands = TrafficMatrix({("a", "d"): mbps(150)})
    assert not FlowSession(diamond, demands, active_links=[("a", "b"), ("b", "d")]).solve().feasible
    assert (
        FlowSession(diamond, demands.scaled(0.5), active_links=[("a", "b"), ("b", "d")])
        .solve()
        .feasible
    )


def test_mcf_infeasible_when_endpoint_inactive(diamond):
    demands = TrafficMatrix({("a", "d"): mbps(1)})
    result = FlowSession(diamond, demands, active_nodes=["a", "b", "c"]).solve()
    assert not result.feasible


def test_mcf_active_nodes_may_be_a_one_shot_iterable(diamond):
    """A generator must restrict the node set exactly as the same list does."""
    demands = TrafficMatrix({("a", "d"): mbps(50)})
    expected = FlowSession(diamond, demands, active_nodes=["a", "b", "d"]).solve()
    assert expected.feasible
    loaded = {
        key
        for key, load in zip(diamond.index().arc_keys, expected.arc_loads, strict=True)
        if load > 0.0
    }
    assert loaded == {("a", "b"), ("b", "d")}
    result = FlowSession(diamond, demands, active_nodes=(node for node in "abd")).solve()
    assert (result.feasible, result.max_utilisation, result.total_flow_bps) == (
        expected.feasible,
        expected.max_utilisation,
        expected.total_flow_bps,
    )
    assert np.array_equal(result.arc_loads, expected.arc_loads)


def test_mcf_empty_demand_is_trivially_feasible(diamond):
    result = solve_mcf(diamond, TrafficMatrix.zero())
    assert result.feasible
    assert result.max_utilisation == 0.0


def test_mcf_utilisation_limit(diamond):
    demands = TrafficMatrix({("a", "d"): mbps(150)})
    assert FlowSession(diamond, demands, utilisation_limit=1.0).solve().feasible
    assert not FlowSession(diamond, demands, utilisation_limit=0.5).solve().feasible
