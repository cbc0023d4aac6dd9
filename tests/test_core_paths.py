"""Tests for the off-line REsPoNse path computations (Section 4)."""

import pytest

from repro.core import (
    ResponseConfig,
    ResponsePlan,
    build_response_plan,
    compute_always_on,
    compute_failover,
    compute_on_demand,
    most_stressed_links,
    stress_factors,
)
from repro.exceptions import ConfigurationError
from repro.power import full_power
from repro.routing import RoutingTable, ospf_invcap_routing
from repro.scenario.registry import resolve
from repro.traffic import TrafficMatrix
from repro.units import mbps

PAIRS = [("A", "K"), ("C", "K")]


@pytest.fixture
def click(click_topology):
    return click_topology


@pytest.fixture
def always_on(click, cisco_model):
    return compute_always_on(click, cisco_model, ResponseConfig(), pairs=PAIRS)


# --------------------------------------------------------------------- #
# Stress factors
# --------------------------------------------------------------------- #
def test_stress_factors_count_flows(click, always_on):
    factors = stress_factors(click, always_on.routing, pairs=PAIRS)
    # Both always-on paths share E-H and H-K: those links carry 2 flows.
    shared = factors[("E", "H")]
    assert shared == max(factors.values())
    assert factors[("D", "G")] == 0.0


def test_most_stressed_links_fraction(click, always_on):
    factors = stress_factors(click, always_on.routing, pairs=PAIRS)
    top = most_stressed_links(factors, exclude_fraction=0.2)
    assert 1 <= len(top) <= 3
    assert top <= {key for key, value in factors.items() if value > 0}
    assert most_stressed_links(factors, exclude_fraction=0.0) == set()
    with pytest.raises(ConfigurationError):
        most_stressed_links(factors, exclude_fraction=1.5)


# --------------------------------------------------------------------- #
# Always-on paths
# --------------------------------------------------------------------- #
def test_always_on_aggregates_on_middle_path(click, cisco_model, always_on):
    # The minimal-power connectivity for A/C -> K is the shared E-H-K path.
    assert always_on.routing.path("A", "K").nodes == ("A", "E", "H", "K")
    assert always_on.routing.path("C", "K").nodes == ("C", "E", "H", "K")
    assert always_on.power_w < full_power(click, cisco_model).total_w


def test_always_on_latency_bound_variant(click, cisco_model):
    config = ResponseConfig(latency_beta=0.0)
    solution = compute_always_on(click, cisco_model, config, pairs=PAIRS)
    ospf = ospf_invcap_routing(click, pairs=PAIRS)
    for pair in PAIRS:
        assert solution.routing.path(*pair).latency(click) <= ospf.path(*pair).latency(
            click
        ) * 1.0 + 1e-9


def test_always_on_config_validation():
    with pytest.raises(ConfigurationError):
        ResponseConfig(latency_beta=-0.5)


# --------------------------------------------------------------------- #
# On-demand paths
# --------------------------------------------------------------------- #
def test_on_demand_stress_avoids_always_on_bottleneck(click, cisco_model, always_on):
    tables = compute_on_demand(
        click,
        cisco_model,
        always_on,
        pairs=PAIRS,
        config=ResponseConfig(on_demand_method="stress", stress_exclude_fraction=0.3),
    )
    assert len(tables) == 1
    for pair in PAIRS:
        on_demand_path = tables[0].path(*pair)
        # The on-demand path avoids the stressed middle link E-H.
        assert ("E", "H") not in set(on_demand_path.link_keys())


def test_on_demand_ospf_variant(click, cisco_model, always_on):
    tables = compute_on_demand(
        click, cisco_model, always_on, pairs=PAIRS, config=ResponseConfig(on_demand_method="ospf")
    )
    ospf = ospf_invcap_routing(click, pairs=PAIRS)
    for pair in PAIRS:
        assert tables[0].path(*pair).nodes == ospf.path(*pair).nodes


def test_on_demand_peak_requires_matrix(click, cisco_model, always_on):
    with pytest.raises(ConfigurationError):
        compute_on_demand(
            click, cisco_model, always_on, ResponseConfig(on_demand_method="peak"), pairs=PAIRS
        )
    peak = TrafficMatrix({pair: mbps(8) for pair in PAIRS})
    tables = compute_on_demand(
        click,
        cisco_model,
        always_on,
        pairs=PAIRS,
        peak_matrix=peak,
        config=ResponseConfig(on_demand_method="peak"),
    )
    assert ("A", "K") in tables[0]


def test_on_demand_heuristic_variant(click, cisco_model, always_on):
    peak = TrafficMatrix({pair: mbps(8) for pair in PAIRS})
    tables = compute_on_demand(
        click,
        cisco_model,
        always_on,
        pairs=PAIRS,
        peak_matrix=peak,
        config=ResponseConfig(on_demand_method="heuristic"),
    )
    assert len(tables[0]) == len(PAIRS)


def test_on_demand_multiple_tables(click, cisco_model, always_on):
    tables = compute_on_demand(
        click,
        cisco_model,
        always_on,
        pairs=PAIRS,
        config=ResponseConfig(on_demand_method="stress", num_paths=4),
    )
    assert len(tables) == 2


def test_on_demand_config_validation():
    with pytest.raises(ConfigurationError):
        ResponseConfig(on_demand_method="magic")
    with pytest.raises(ConfigurationError):
        ResponseConfig(num_paths=1)
    with pytest.raises(ConfigurationError):
        ResponseConfig(stress_exclude_fraction=2.0)


# --------------------------------------------------------------------- #
# Failover paths
# --------------------------------------------------------------------- #
def test_failover_is_disjoint_when_possible(click, cisco_model, always_on):
    on_demand = compute_on_demand(click, cisco_model, always_on, ResponseConfig(), pairs=PAIRS)
    failover = compute_failover(click, [always_on.routing, *on_demand], pairs=PAIRS)
    for pair in PAIRS:
        primary_links = set(always_on.routing.path(*pair).link_keys())
        failover_links = set(failover.path(*pair).link_keys())
        # Disjoint from the always-on path except possibly the first hop.
        assert ("E", "H") not in failover_links or primary_links != failover_links


def test_single_failure_protection(click, cisco_model, always_on):
    on_demand = compute_on_demand(click, cisco_model, always_on, ResponseConfig(), pairs=PAIRS)
    failover = compute_failover(click, [always_on.routing, *on_demand], pairs=PAIRS)
    tables = [always_on.routing, *on_demand, failover]
    # No single link failure severs every installed path of a pair.
    for pair in PAIRS:
        link_sets = [set(table.path(*pair).link_keys()) for table in tables]
        assert set.intersection(*link_sets) == set()


def test_failover_default_pairs_from_tables(click, always_on):
    failover = compute_failover(click, [always_on.routing])
    assert set(failover.pairs()) == set(PAIRS)


# --------------------------------------------------------------------- #
# ResponsePlan and build_response_plan
# --------------------------------------------------------------------- #
def test_build_response_plan_end_to_end(click, cisco_model):
    plan = build_response_plan(
        click, cisco_model, pairs=PAIRS, config=ResponseConfig(num_paths=3)
    )
    assert plan.num_paths == 3
    assert set(plan.pairs()) == set(PAIRS)
    assert plan.failover is not None
    assert plan.summary()["pairs"] == 2
    for pair in PAIRS:
        paths = {table.get(*pair) for table in plan.tables(include_failover=True)}
        assert 2 <= len(paths) <= 3


def test_build_response_plan_variants(click, cisco_model):
    """Each registered REsPoNse name states its one differing default."""
    for variant in ("response", "response-lat", "response-ospf", "response-heuristic"):
        config = resolve("scheme", variant)().config
        plan = build_response_plan(click, cisco_model, pairs=PAIRS, config=config)
        assert plan.variant == variant
    assert resolve("scheme", "response-lat")(latency_beta=0.5).config.latency_beta == 0.5


def test_response_config_validation():
    with pytest.raises(ConfigurationError):
        ResponseConfig(num_paths=1)
    config = ResponseConfig(num_paths=5)
    assert config.num_on_demand_tables == 3


def test_plan_from_tables(click, cisco_model):
    always_on_table = RoutingTable({("A", "K"): ["A", "E", "H", "K"]})
    on_demand_table = RoutingTable({("A", "K"): ["A", "D", "G", "K"]})
    plan = ResponsePlan.from_tables(
        click, cisco_model, always_on_table, [on_demand_table]
    )
    assert plan.num_paths == 2
    assert plan.always_on.active_nodes == {"A", "E", "H", "K"}
    assert plan.failover is None
