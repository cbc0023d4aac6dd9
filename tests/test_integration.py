"""End-to-end integration tests across the whole pipeline.

These tests exercise the realistic flow a user of the library follows:
build a topology, generate traffic, compute a REsPoNse plan, replay demand
through the activation planner, drive the online controller in the
simulator, and check the headline properties the paper claims.
"""

import pytest

from repro.core import (
    ResponseConfig,
    ResponseTEController,
    TEConfig,
    activate_paths,
    build_response_plan,
)
from repro.power import (
    AlternativeHardwarePowerModel,
    CiscoRouterPowerModel,
    full_power,
)
from repro.routing import max_link_utilisation, ospf_invcap_routing
from repro.simulator import Flow, SimulatedNetwork, SimulationEngine, constant_demand
from repro.topology import build_geant
from repro.traffic import (
    generate_geant_trace,
    gravity_matrix,
    select_pairs_among_subset,
)


@pytest.fixture(scope="module")
def geant_setup():
    topology = build_geant()
    model = CiscoRouterPowerModel()
    pairs = select_pairs_among_subset(topology.routers(), 12, 40, seed=7)
    plan = build_response_plan(
        topology, model, pairs=pairs, config=ResponseConfig(num_paths=3, k=3)
    )
    return topology, model, pairs, plan


def _installed_paths(plan, pair):
    tables = plan.tables(include_failover=True)
    return {table.get(*pair) for table in tables} - {None}


def test_plan_installs_three_paths_per_pair(geant_setup):
    topology, _model, pairs, plan = geant_setup
    assert plan.num_paths == 3
    for pair in pairs:
        paths = _installed_paths(plan, pair)
        assert 1 <= len(paths) <= 3
        for path in paths:
            assert path.is_valid(topology)


def test_always_on_subset_uses_fewer_elements_than_ospf(geant_setup):
    topology, model, pairs, plan = geant_setup
    ospf = ospf_invcap_routing(topology, pairs=pairs)
    assert len(plan.always_on.active_links) <= len(ospf.used_links())
    assert plan.always_on.power_w < full_power(topology, model).total_w


def test_replay_is_energy_proportional_and_feasible(geant_setup):
    topology, model, pairs, plan = geant_setup
    base = gravity_matrix(topology, total_traffic_bps=1e9, pairs=pairs)
    results = []
    for scale in (0.5, 5.0, 30.0):
        demands = base.scaled(scale)
        result = activate_paths(topology, model, plan, demands)
        results.append(result)
        assert result.max_utilisation <= 1.0 + 1e-6 or result.overloaded_pairs
    # Power grows with offered load, and savings exist at low load.
    assert results[0].power_w <= results[-1].power_w + 1e-6
    assert results[0].power_percent < 100.0


def test_alternative_hardware_model_saves_more(geant_setup):
    topology, _model, pairs, _plan = geant_setup
    base = gravity_matrix(topology, total_traffic_bps=2e9, pairs=pairs)
    results = {}
    for label, model in (
        ("cisco", CiscoRouterPowerModel()),
        ("alternative", AlternativeHardwarePowerModel()),
    ):
        plan = build_response_plan(
            topology, model, pairs=pairs, config=ResponseConfig(num_paths=3, k=3)
        )
        results[label] = activate_paths(topology, model, plan, base)
    assert (
        results["alternative"].energy_savings_percent()
        > results["cisco"].energy_savings_percent()
    )


def test_trace_replay_needs_no_recomputation(geant_setup):
    topology, model, pairs, plan = geant_setup
    trace = generate_geant_trace(topology, num_days=1, pairs=pairs, seed=7).subsampled(8)
    overloaded_intervals = 0
    for interval in trace:
        result = activate_paths(topology, model, plan, interval.matrix)
        if result.overloaded_pairs:
            overloaded_intervals += 1
    # The single precomputed plan absorbs (nearly) the whole replay.
    assert overloaded_intervals <= len(trace) // 10


def test_online_controller_matches_planner_steady_state(geant_setup):
    topology, model, pairs, plan = geant_setup
    demands = gravity_matrix(topology, total_traffic_bps=2e9, pairs=pairs)
    network = SimulatedNetwork(topology, model, wake_delay_s=0.1)
    flows = [
        Flow(f"{origin}->{destination}", origin, destination, constant_demand(demands[pair]))
        for pair in pairs
        for origin, destination in [pair]
    ]
    controller = ResponseTEController(plan, TEConfig())
    engine = SimulationEngine(network, flows, controller, time_step_s=0.2)
    result = engine.run(duration_s=10.0)
    final = result.samples[-1]
    # All demand is served and a meaningful share of the network sleeps.
    assert final.total_rate_bps == pytest.approx(final.total_demand_bps, rel=0.05)
    assert final.sleeping_links > 0
    assert final.power_percent < 100.0

    planner_result = activate_paths(topology, model, plan, demands)
    # The simulator's steady-state power is in the same ballpark as the
    # analytic planner's (both count always-on elements plus activated paths).
    assert final.power_percent == pytest.approx(planner_result.power_percent, abs=15.0)


def test_ospf_baseline_feasible_but_not_energy_proportional(geant_setup):
    topology, model, pairs, _plan = geant_setup
    demands = gravity_matrix(topology, total_traffic_bps=2e9, pairs=pairs)
    ospf = ospf_invcap_routing(topology, pairs=pairs)
    assert max_link_utilisation(topology, ospf, demands) <= 1.0
    # OSPF keeps every element it touches active regardless of load: the
    # element set is independent of the demand level.
    assert ospf.used_links() == ospf_invcap_routing(topology, pairs=pairs).used_links()
