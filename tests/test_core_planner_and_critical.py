"""Tests for the activation planner and energy-critical path identification."""

import pytest

from repro.core import (
    ResponseConfig,
    activate_paths,
    build_response_plan,
    coverage_curve,
    paths_needed_for_coverage,
    rank_paths_by_traffic,
)
from repro.exceptions import ConfigurationError, TrafficError
from repro.routing import RoutingTable
from repro.simulator import TopologyView
from repro.traffic import TrafficMatrix, TrafficTrace
from repro.units import mbps

PAIRS = [("A", "K"), ("C", "K")]


@pytest.fixture
def plan(click_topology, cisco_model):
    return build_response_plan(
        click_topology, cisco_model, pairs=PAIRS, config=ResponseConfig(num_paths=3)
    )


# --------------------------------------------------------------------- #
# Activation planner
# --------------------------------------------------------------------- #
def test_low_demand_stays_on_always_on(click_topology, cisco_model, plan):
    demands = TrafficMatrix({pair: mbps(1) for pair in PAIRS})
    result = activate_paths(click_topology, cisco_model, plan, demands)
    assert all(index == 0 for index in result.assignment.values())
    assert result.num_on_demand_pairs == 0
    assert result.active_nodes == plan.always_on.active_nodes
    assert result.power_percent < 100.0
    assert result.overloaded_pairs == []
    assert result.energy_savings_percent() == pytest.approx(100.0 - result.power_percent)


def test_high_demand_activates_on_demand(click_topology, cisco_model, plan):
    # Two 8 Mb/s flows cannot share the 10 Mb/s middle link within a 90% SLO.
    demands = TrafficMatrix({pair: mbps(8) for pair in PAIRS})
    result = activate_paths(
        click_topology, cisco_model, plan, demands, utilisation_threshold=0.9
    )
    assert result.num_on_demand_pairs >= 1
    assert result.max_utilisation <= 0.9 + 1e-9
    assert result.power_w > activate_paths(
        click_topology, cisco_model, plan, TrafficMatrix({pair: mbps(1) for pair in PAIRS})
    ).power_w


def test_power_is_monotone_in_demand(click_topology, cisco_model, plan):
    previous = 0.0
    for level in (1, 4, 8):
        demands = TrafficMatrix({pair: mbps(level) for pair in PAIRS})
        result = activate_paths(click_topology, cisco_model, plan, demands)
        assert result.power_w >= previous - 1e-9
        previous = result.power_w


def test_overload_recorded_but_traffic_still_placed(click_topology, cisco_model, plan):
    demands = TrafficMatrix({pair: mbps(25) for pair in PAIRS})
    result = activate_paths(click_topology, cisco_model, plan, demands)
    assert set(result.overloaded_pairs) <= set(PAIRS)
    assert len(result.assignment) == len(PAIRS)


def test_failed_link_pushes_traffic_to_failover(click_topology, cisco_model, plan):
    demands = TrafficMatrix({pair: mbps(2) for pair in PAIRS})
    view = TopologyView(click_topology, failed_links=[("E", "H")])
    result = activate_paths(click_topology, cisco_model, plan, demands, view=view)
    # No assigned path crosses the failed link.
    tables = plan.tables(include_failover=True)
    for pair, index in result.assignment.items():
        assert ("E", "H") not in set(tables[index].path(*pair).link_keys())
    assert ("E", "H") not in result.active_links


def test_failed_link_in_either_orientation_is_neither_used_nor_billed(
    click_topology, cisco_model, plan
):
    # 8 Mb/s each: one pair on failover, which wakes the upper path too.
    demands = TrafficMatrix({pair: mbps(8) for pair in PAIRS})
    canonical, reversed_ = (
        activate_paths(
            click_topology,
            cisco_model,
            plan,
            demands,
            view=TopologyView(click_topology, failed_links=[link]),
        )
        for link in (("E", "H"), ("H", "E"))
    )
    assert vars(reversed_) == vars(canonical)
    assert ("E", "H") not in reversed_.active_links
    assert reversed_.power_w == pytest.approx(6480.0)


def test_activation_threshold_validation(click_topology, cisco_model, plan):
    with pytest.raises(ConfigurationError):
        activate_paths(
            click_topology,
            cisco_model,
            plan,
            TrafficMatrix.zero(),
            utilisation_threshold=0.0,
        )


def test_replay_trace_produces_one_result_per_matrix(click_topology, cisco_model, plan):
    matrices = [TrafficMatrix({pair: mbps(level) for pair in PAIRS}) for level in (1, 5, 9)]
    results = [activate_paths(click_topology, cisco_model, plan, matrix) for matrix in matrices]
    assert len(results) == 3
    assert results[0].power_w <= results[-1].power_w + 1e-9


# --------------------------------------------------------------------- #
# Energy-critical path identification
# --------------------------------------------------------------------- #
def _two_interval_trace():
    matrices = [
        TrafficMatrix({("A", "K"): mbps(9), ("C", "K"): mbps(1)}),
        TrafficMatrix({("A", "K"): mbps(1), ("C", "K"): mbps(1)}),
    ]
    return TrafficTrace(matrices, interval_s=900.0)


def _two_routings():
    first = RoutingTable(
        {("A", "K"): ["A", "E", "H", "K"], ("C", "K"): ["C", "E", "H", "K"]}
    )
    second = RoutingTable(
        {("A", "K"): ["A", "D", "G", "K"], ("C", "K"): ["C", "E", "H", "K"]}
    )
    return [first, second]


def test_rank_paths_by_traffic_orders_by_volume():
    ranked = rank_paths_by_traffic(_two_interval_trace(), _two_routings())
    top_for_a = ranked[("A", "K")][0]
    assert top_for_a.path.nodes == ("A", "E", "H", "K")
    assert top_for_a.intervals_used == 1
    assert len(ranked[("C", "K")]) == 1


def test_rank_paths_requires_matching_lengths():
    with pytest.raises(TrafficError):
        rank_paths_by_traffic(_two_interval_trace(), _two_routings()[:1])


def test_coverage_curve_monotone_and_bounded():
    ranked = rank_paths_by_traffic(_two_interval_trace(), _two_routings())
    curve = coverage_curve(ranked, max_paths=3)
    assert len(curve) == 3
    assert all(0.0 <= value <= 1.0 for value in curve)
    assert curve == sorted(curve)
    assert curve[-1] == pytest.approx(1.0)
    with pytest.raises(TrafficError):
        coverage_curve(ranked, max_paths=0)


def test_paths_needed_for_coverage():
    ranked = rank_paths_by_traffic(_two_interval_trace(), _two_routings())
    assert paths_needed_for_coverage(ranked, 0.99) == 2
    assert paths_needed_for_coverage(ranked, 0.5) == 1
    with pytest.raises(TrafficError):
        paths_needed_for_coverage(ranked, 1.5)
