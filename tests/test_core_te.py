"""Tests for the REsPoNseTE online controller on the flow-level simulator."""

import pytest

from repro.core import ResponsePlan, ResponseTEController, TEConfig
from repro.exceptions import ConfigurationError
from repro.routing import RoutingTable
from repro.simulator import (
    Flow,
    LinkState,
    SimulatedNetwork,
    SimulationEngine,
    TopologyChange,
    constant_demand,
    stepped_demand,
)
from repro.topology import example_paths
from repro.units import mbps

PAIRS = [("A", "K"), ("C", "K")]


def _on_always_on(plan, flow):
    return flow.path == plan.always_on_table.path(flow.origin, flow.destination)


def _example_plan(topology, power_model):
    installed = example_paths()
    return ResponsePlan.from_tables(
        topology,
        power_model,
        always_on_table=RoutingTable(installed["always_on"], name="always-on"),
        on_demand_tables=[RoutingTable(installed["on_demand"], name="on-demand")],
        failover_table=RoutingTable(installed["failover"], name="failover"),
    )


@pytest.fixture
def click(click_topology):
    return click_topology


def _flows(rate_bps, count_per_source=2):
    flows = []
    for source in ("A", "C"):
        for index in range(count_per_source):
            flows.append(
                Flow(f"{source}{index}", source, "K", constant_demand(rate_bps))
            )
    return flows


def test_te_config_validation():
    with pytest.raises(ConfigurationError):
        TEConfig(utilisation_threshold=1.5)
    with pytest.raises(ConfigurationError):
        TEConfig(utilisation_threshold=0.5, release_threshold=0.9)


@pytest.mark.parametrize(
    "options",
    [
        # Negative indexing would start every flow on the failover table.
        {"initial_table_index": -1},
        # The 1 ms floor only guards the RTT default; zero was taken as is.
        {"probe_interval_s": 0},
        {"probe_interval_s": -0.5},
    ],
)
def test_te_config_rejects_what_would_misplace_flows_or_stall_probes(options):
    with pytest.raises(ConfigurationError):
        TEConfig(**options)


def test_te_aggregates_low_traffic_and_sleeps_links(click, cisco_model):
    plan = _example_plan(click, cisco_model)
    network = SimulatedNetwork(click, cisco_model, wake_delay_s=0.01)
    flows = _flows(mbps(1))
    controller = ResponseTEController(plan, TEConfig())
    engine = SimulationEngine(network, flows, controller, time_step_s=0.05)
    result = engine.run(duration_s=1.0)
    final = result.samples[-1]
    assert final.total_rate_bps == pytest.approx(4 * mbps(1))
    # On-demand links (D-G, F-J and their tails) are asleep.
    assert network.link_state_codes()[click.index().link_index[("D", "G")]] == LinkState.SLEEPING
    assert network.link_state_codes()[click.index().link_index[("F", "J")]] == LinkState.SLEEPING
    assert network.link_state_codes()[click.index().link_index[("E", "H")]] == LinkState.ACTIVE
    assert all(_on_always_on(plan, flow) for flow in flows)
    assert final.power_percent < 100.0


def test_te_activates_on_demand_under_load(click, cisco_model):
    plan = _example_plan(click, cisco_model)
    network = SimulatedNetwork(click, cisco_model, wake_delay_s=0.01)
    # 4 flows of 4 Mb/s cannot share the 10 Mb/s middle link at a 90% SLO.
    flows = _flows(mbps(4))
    controller = ResponseTEController(plan, TEConfig())
    engine = SimulationEngine(network, flows, controller, time_step_s=0.05)
    result = engine.run(duration_s=2.0)
    final = result.samples[-1]
    assert final.total_rate_bps == pytest.approx(16 * 1e6, rel=0.05)
    assert any(not _on_always_on(plan, flow) for flow in flows)


def test_te_recovers_from_always_on_failure(click, cisco_model):
    plan = _example_plan(click, cisco_model)
    network = SimulatedNetwork(click, cisco_model, wake_delay_s=0.01)
    flows = _flows(mbps(1))
    controller = ResponseTEController(plan, TEConfig(failure_detection_delay_s=0.1))
    failures = [TopologyChange(1.0, "link", "fail", ("E", "H"))]
    engine = SimulationEngine(
        network, flows, controller, time_step_s=0.02, failures=failures
    )
    result = engine.run(duration_s=3.0)
    times = result.times()
    rates = result.series("total_rate_bps")
    # Rate drops right after the failure but recovers within ~0.2 s.
    during = [rate for time, rate in zip(times, rates, strict=True) if 1.02 <= time <= 1.08]
    after = [rate for time, rate in zip(times, rates, strict=True) if time >= 1.5]
    assert min(during) == 0.0
    assert after[-1] == pytest.approx(4 * mbps(1), rel=0.01)
    assert not any(_on_always_on(plan, flow) for flow in flows)


def test_te_release_returns_traffic_to_always_on(click, cisco_model):
    plan = _example_plan(click, cisco_model)
    network = SimulatedNetwork(click, cisco_model, wake_delay_s=0.01)
    # Demand starts high (forcing on-demand activation) then drops.
    flows = []
    for source in ("A", "C"):
        for index in range(2):
            flows.append(
                Flow(
                    f"{source}{index}",
                    source,
                    "K",
                    stepped_demand([(0.0, mbps(4)), (2.0, mbps(0.5))]),
                )
            )
    controller = ResponseTEController(plan, TEConfig(release_threshold=0.5))
    engine = SimulationEngine(network, flows, controller, time_step_s=0.05)
    engine.run(duration_s=4.0)
    assert all(_on_always_on(plan, flow) for flow in flows)
    assert network.link_state_codes()[click.index().link_index[("D", "G")]] == LinkState.SLEEPING


def test_te_start_time_defers_control(click, cisco_model):
    plan = _example_plan(click, cisco_model)
    network = SimulatedNetwork(click, cisco_model, wake_delay_s=0.01)
    flows = _flows(mbps(1))
    controller = ResponseTEController(
        plan, TEConfig(start_time_s=5.0, initial_table_index=1, probe_interval_s=0.1)
    )
    engine = SimulationEngine(network, flows, controller, time_step_s=0.05)
    result = engine.run(duration_s=2.0, start_s=4.0)
    # Before the TE start nothing sleeps and traffic remains on on-demand paths.
    early = [s for s in result.samples if s.time_s < 5.0]
    late = [s for s in result.samples if s.time_s > 5.5]
    assert all(sample.sleeping_links == 0 for sample in early)
    assert late[-1].sleeping_links > 0
    assert all(_on_always_on(plan, flow) for flow in flows)
    assert controller.probe_interval_s == pytest.approx(0.1)
