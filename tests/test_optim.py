"""Tests for the energy-aware optimisation layer (MILPs and heuristics)."""

import pytest

from repro.exceptions import InfeasibleError, SolverError
from repro.optim import (
    element_power_coefficients,
    elastictree_subset,
    greedy_minimum_subset,
    greente_heuristic,
    lp_relaxation_with_rounding,
    solve_arc_milp,
    solve_path_milp,
)
from repro.power import CISCO_CHASSIS_POWER_W, full_power, network_power
from repro.routing import max_link_utilisation
from repro.topology import build_example
from repro.traffic import TrafficMatrix, all_pairs
from repro.units import mbps


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def test_element_power_coefficients(diamond, cisco_model):
    node_power, link_power = element_power_coefficients(diamond, cisco_model)
    assert node_power["a"] == CISCO_CHASSIS_POWER_W
    assert all(value > 0 for value in link_power.values())
    assert set(link_power) == set(diamond.link_keys())


def test_subset_power_matches_accounting(diamond, cisco_model):
    power = network_power(diamond, cisco_model, {"a", "b"}, {("a", "b")}).total_w
    assert power == pytest.approx(2 * CISCO_CHASSIS_POWER_W + 2 * 60.0)


# --------------------------------------------------------------------- #
# Path-restricted MILP
# --------------------------------------------------------------------- #
def test_path_milp_minimises_power_on_diamond(diamond, cisco_model):
    demands = TrafficMatrix.epsilon([("a", "d"), ("d", "a")])
    solution = solve_path_milp(diamond, cisco_model, demands)
    # One two-hop path suffices; only 3 nodes and 2 links should stay on.
    assert len(solution.active_links) == 2
    assert len(solution.active_nodes) == 3
    assert solution.routing.path("a", "d").num_hops == 2
    assert solution.optimal
    assert solution.power_w < full_power(diamond, cisco_model).total_w


def test_path_milp_respects_capacity(diamond, cisco_model):
    # Two 60 Mb/s single-path flows cannot share a 100 Mb/s arc: the solver
    # must separate them even though aggregation would be cheaper.
    demands = TrafficMatrix({("a", "d"): mbps(60), ("b", "c"): mbps(60)})
    solution = solve_path_milp(diamond, cisco_model, demands)
    assert max_link_utilisation(diamond, solution.routing, demands) <= 1.0 + 1e-6
    a_d_arcs = set(solution.routing.path("a", "d").arc_keys())
    b_c_arcs = set(solution.routing.path("b", "c").arc_keys())
    assert not (a_d_arcs & b_c_arcs)


def test_path_milp_infeasible_demand_raises(diamond, cisco_model):
    demands = TrafficMatrix({("a", "d"): mbps(500)})
    with pytest.raises(InfeasibleError):
        solve_path_milp(diamond, cisco_model, demands)


def test_path_milp_latency_bound_filters_candidates(diamond, cisco_model):
    demands = TrafficMatrix.epsilon([("a", "d")])
    tight = {("a", "d"): 0.0025}  # only a-b-d (2 ms) qualifies
    solution = solve_path_milp(
        diamond, cisco_model, demands, latency_bound=tight
    )
    assert solution.routing.path("a", "d").nodes == ("a", "b", "d")


def test_path_milp_forbidden_links_avoided(diamond, cisco_model):
    demands = TrafficMatrix.epsilon([("a", "d")])
    solution = solve_path_milp(
        diamond, cisco_model, demands, forbidden_links=[("a", "b")]
    )
    assert solution.routing.path("a", "d").nodes == ("a", "c", "d")


def test_path_milp_fixed_elements_stay_on(diamond, cisco_model):
    demands = TrafficMatrix.epsilon([("a", "d")])
    solution = solve_path_milp(
        diamond,
        cisco_model,
        demands,
        fixed_on_nodes=["c"],
        fixed_on_links=[("a", "c")],
    )
    assert "c" in solution.active_nodes
    assert ("a", "c") in solution.active_links


def test_path_milp_empty_demand(diamond, cisco_model):
    solution = solve_path_milp(diamond, cisco_model, TrafficMatrix.zero())
    assert solution.active_links == set()
    assert len(solution.routing) == 0


def test_path_milp_relaxed_mode_still_routes(diamond, cisco_model):
    demands = TrafficMatrix({("a", "d"): mbps(10)})
    solution = solve_path_milp(diamond, cisco_model, demands, relaxed=True)
    assert solution.routing.path("a", "d").is_valid(diamond)
    assert not solution.optimal


# --------------------------------------------------------------------- #
# Exact arc-based MILP
# --------------------------------------------------------------------- #
def test_arc_milp_matches_path_milp_on_example(cisco_model):
    topology = build_example(include_b=False)
    pairs = [("A", "K"), ("C", "K")]
    demands = TrafficMatrix.epsilon(pairs)
    arc_solution = solve_arc_milp(topology, cisco_model, demands)
    path_solution = solve_path_milp(topology, cisco_model, demands)
    assert arc_solution.power_w == pytest.approx(path_solution.power_w, rel=1e-6)
    # Both share the always-on style aggregation through E-H-K.
    assert arc_solution.routing.path("A", "K").nodes == ("A", "E", "H", "K")


def test_arc_milp_capacity_forces_second_path(diamond, cisco_model):
    demands = TrafficMatrix({("a", "d"): mbps(90), ("d", "a"): mbps(90)})
    solution = solve_arc_milp(diamond, cisco_model, demands)
    assert max_link_utilisation(diamond, solution.routing, demands) <= 1.0 + 1e-6


def test_arc_milp_fixes_every_element_of_an_iterator_argument(diamond, cisco_model):
    """A generator fixes all its nodes (the first node's membership test used
    to consume it); an unknown fixed link is skipped, as the path MILP does."""
    solution = solve_arc_milp(
        diamond,
        cisco_model,
        TrafficMatrix.epsilon([("a", "d")]),
        fixed_on_nodes=(name for name in ("b", "c")),
        fixed_on_links=iter([("c", "d"), ("a", "zz")]),
    )
    assert {"b", "c"} <= solution.active_nodes
    assert ("c", "d") in solution.active_links


def test_arc_milp_guards_against_huge_instances(geant, cisco_model):
    demands = TrafficMatrix.epsilon(all_pairs(geant.routers()))
    with pytest.raises(SolverError):
        solve_arc_milp(geant, cisco_model, demands)


# --------------------------------------------------------------------- #
# Heuristics
# --------------------------------------------------------------------- #
def test_greedy_minimum_subset_keeps_demand_feasible(diamond, cisco_model, diamond_demands):
    solution = greedy_minimum_subset(diamond, cisco_model, diamond_demands)
    assert solution.power_w <= full_power(diamond, cisco_model).total_w
    assert {"a", "d"} <= solution.active_nodes
    assert solution.routing is not None
    assert max_link_utilisation(
        diamond.subgraph(solution.active_nodes, solution.active_links),
        solution.routing,
        diamond_demands,
    ) <= 1.0 + 1e-6


def test_greedy_turns_off_unneeded_elements(diamond, cisco_model):
    demands = TrafficMatrix({("a", "d"): mbps(10)})
    solution = greedy_minimum_subset(diamond, cisco_model, demands)
    assert len(solution.active_nodes) == 3
    assert len(solution.active_links) == 2


def test_greente_heuristic_places_all_pairs(diamond, cisco_model, diamond_demands):
    solution = greente_heuristic(diamond, cisco_model, diamond_demands, k=2)
    assert set(solution.routing.pairs()) == set(diamond_demands.pairs())
    assert max_link_utilisation(diamond, solution.routing, diamond_demands) <= 1.0 + 1e-6


def test_greente_respects_capacity_or_raises(diamond, cisco_model):
    # Two 60 Mb/s flows must be kept apart (single-path routing, 100 Mb/s arcs).
    demands = TrafficMatrix({("a", "d"): mbps(60), ("b", "c"): mbps(60)})
    solution = greente_heuristic(diamond, cisco_model, demands, k=3)
    assert max_link_utilisation(diamond, solution.routing, demands) <= 1.0 + 1e-6
    huge = TrafficMatrix({("a", "d"): mbps(500)})
    with pytest.raises(InfeasibleError):
        greente_heuristic(diamond, cisco_model, huge, k=2)
    overloaded = greente_heuristic(diamond, cisco_model, huge, k=2, allow_overload=True)
    assert overloaded.routing.path("a", "d").is_valid(diamond)


def test_greente_stable_ordering_is_deterministic(diamond, cisco_model):
    demands_a = TrafficMatrix({("a", "d"): mbps(10), ("d", "a"): mbps(20)})
    demands_b = TrafficMatrix({("a", "d"): mbps(20), ("d", "a"): mbps(10)})
    first = greente_heuristic(diamond, cisco_model, demands_a, ordering="stable")
    second = greente_heuristic(diamond, cisco_model, demands_b, ordering="stable")
    assert first.active_links == second.active_links
    with pytest.raises(ValueError):
        greente_heuristic(diamond, cisco_model, demands_a, ordering="random")


def test_greente_fixed_elements_have_zero_marginal_cost(diamond, cisco_model):
    demands = TrafficMatrix({("a", "d"): mbps(1)})
    solution = greente_heuristic(
        diamond,
        cisco_model,
        demands,
        fixed_on_nodes={"a", "c", "d"},
        fixed_on_links={("a", "c"), ("c", "d")},
    )
    # The pre-paid a-c-d path is chosen because it adds no new power.
    assert solution.routing.path("a", "d").nodes == ("a", "c", "d")


def test_elastictree_subset_scales_with_load(fattree4, commodity_model):
    hosts = fattree4.nodes_at_level("host")
    low = TrafficMatrix({(hosts[0], hosts[8]): mbps(50)})
    high = TrafficMatrix(
        {(hosts[i], hosts[(i + 8) % 16]): mbps(900) for i in range(16)}
    )
    low_solution = elastictree_subset(fattree4, commodity_model, low)
    high_solution = elastictree_subset(fattree4, commodity_model, high)
    assert low_solution.power_w < high_solution.power_w
    assert low_solution.routing is not None


def test_lp_relaxation_with_rounding_feasible(diamond, cisco_model, diamond_demands):
    solution = lp_relaxation_with_rounding(diamond, cisco_model, diamond_demands)
    assert {"a", "d"} <= solution.active_nodes
    assert solution.power_w <= full_power(diamond, cisco_model).total_w
    assert not solution.optimal


def test_solution_as_dict(diamond, cisco_model, diamond_demands):
    solution = greente_heuristic(diamond, cisco_model, diamond_demands)
    summary = solution.as_dict()
    assert summary["solver"] == "greente-heuristic"
    assert summary["active_nodes"] == len(solution.active_nodes)


# --------------------------------------------------------------------- #
# Hash-seed stability of the path MILP's row order
# --------------------------------------------------------------------- #
_PEAK_PLAN_SCRIPT = """\
import json, sys
from repro.core.response import ResponseConfig, build_response_plan
from repro.scenario import PowerSpec, ScenarioSpec, TopologySpec, TrafficSpec, build_scenario

built = build_scenario(ScenarioSpec(
    name="peak-plan",
    topology=TopologySpec("fattree", k=4),
    traffic=TrafficSpec("sinewave", mode="far", num_intervals=4, seed=8),
    power=PowerSpec("commodity", ports_at_peak=4),
))
plan = build_response_plan(
    built.topology,
    built.power_model,
    pairs=built.pairs,
    peak_matrix=built.peak_matrix(),
    config=ResponseConfig(num_paths=3, k=6, on_demand_method="peak"),
)
tables = {f"on-demand-{i}": table for i, table in enumerate(plan.on_demand)}
tables["failover"] = plan.failover
json.dump(
    {
        name: sorted(["->".join(pair), list(path.nodes)] for pair, path in table.items())
        for name, table in tables.items()
    },
    sys.stdout,
    sort_keys=True,
)
"""


def test_peak_on_demand_and_failover_tables_do_not_follow_the_hash_seed(
    run_under_hash_seeds,
):
    """The path MILP emits its rows in path order, not ``set`` order.

    Constraint (c) used to iterate ``set(path.link_keys())``, so the row
    order — and which of the fat-tree's many degenerate optima HiGHS
    returned — followed ``PYTHONHASHSEED``: the traffic-aware on-demand
    tables (and the failover table computed from them) differed between
    two interpreters.
    """
    outputs = run_under_hash_seeds(["-c", _PEAK_PLAN_SCRIPT], seeds=("0", "1"))
    assert outputs[0] == outputs[1]
    assert '"failover"' in outputs[0] and '"on-demand-0"' in outputs[0]
