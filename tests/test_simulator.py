"""Tests for the flow-level simulator (link states, flows, network, engine)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.simulator import (
    Flow,
    LinkState,
    SimulatedNetwork,
    SimulationEngine,
    TopologyChange,
    constant_demand,
    due,
    stepped_demand,
)
from repro.routing import Path
from repro.units import mbps


def state_of(network, u, v):
    """The :class:`LinkState` of link ``u-v`` in *network*."""
    return LinkState(network.link_state_codes()[network.topology.index().link_index[(u, v)]])


# --------------------------------------------------------------------- #
# Link state transitions
# --------------------------------------------------------------------- #
def test_link_sleep_wake_cycle(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model, wake_delay_s=1.0)
    link = np.array([diamond.index().link_index[("a", "b")]])
    assert state_of(network, "a", "b") == LinkState.ACTIVE
    network.sleep_idle_links(~diamond.index().link_mask([("a", "b")]))
    assert state_of(network, "a", "b") == LinkState.SLEEPING
    assert not network.link_usable_vector()[link].any()
    network.request_wake(link, now_s=10.0)
    assert state_of(network, "a", "b") == LinkState.WAKING
    assert ("a", "b") in network.active_elements()[1]  # a waking link draws power
    network.advance(10.5)
    assert state_of(network, "a", "b") == LinkState.WAKING
    network.advance(11.0)
    assert state_of(network, "a", "b") == LinkState.ACTIVE


def test_link_failure_and_repair(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    network.fail_link("a", "b")
    assert state_of(network, "a", "b") == LinkState.FAILED
    assert ("a", "b") not in network.active_elements()[1]
    network.request_wake(np.array([diamond.index().link_index[("a", "b")]]), 0.0)
    assert state_of(network, "a", "b") == LinkState.FAILED  # waking a failed link is a no-op
    network.sleep_idle_links(np.zeros(len(diamond.links()), dtype=bool))
    assert state_of(network, "a", "b") == LinkState.FAILED  # only active links sleep
    network.repair_link("a", "b")
    assert state_of(network, "a", "b") == LinkState.ACTIVE
    with pytest.raises(SimulationError, match="no link"):
        network.fail_link("a", "d")


def test_sleep_idle_links_keeps_requested(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    network.sleep_idle_links(diamond.index().link_mask([("a", "b"), ("d", "b")]))
    assert state_of(network, "a", "b") == LinkState.ACTIVE
    assert state_of(network, "a", "c") == LinkState.SLEEPING
    nodes, links = network.active_elements()
    assert links == {("a", "b"), ("b", "d")}
    assert nodes == {"a", "b", "d"}


def test_power_percent_drops_when_links_sleep(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    assert network.power_percent() == pytest.approx(100.0)
    network.sleep_idle_links(diamond.index().link_mask([("a", "b"), ("b", "d")]))
    assert network.power_percent() < 100.0


# --------------------------------------------------------------------- #
# Demand profiles
# --------------------------------------------------------------------- #
def test_constant_and_stepped_demand():
    constant = constant_demand(mbps(5))
    assert constant(0.0) == constant(100.0) == mbps(5)
    stepped = stepped_demand([(0.0, 1.0), (10.0, 3.0), (20.0, 2.0)])
    assert stepped(-1.0) == 0.0
    assert stepped(5.0) == 1.0
    assert stepped(10.0) == 3.0
    assert stepped(25.0) == 2.0


# --------------------------------------------------------------------- #
# Rate allocation
# --------------------------------------------------------------------- #
def test_allocation_caps_at_demand(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    flow = Flow("f1", "a", "d", constant_demand(mbps(30)), path=Path.of(["a", "b", "d"]))
    network.allocate_rates([flow], now_s=0.0)
    assert flow.rate_bps == pytest.approx(mbps(30))
    assert network.arc_load("a", "b") == pytest.approx(mbps(30))


def test_allocation_shares_bottleneck_fairly(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    path = Path.of(["a", "b", "d"])
    flows = [
        Flow("big", "a", "d", constant_demand(mbps(90)), path=path),
        Flow("small", "a", "d", constant_demand(mbps(20)), path=path),
    ]
    network.allocate_rates(flows, now_s=0.0)
    # Max-min: the small flow gets its full demand, the big one the rest.
    assert flows[1].rate_bps == pytest.approx(mbps(20), rel=1e-3)
    assert flows[0].rate_bps == pytest.approx(mbps(80), rel=1e-3)
    assert network.arc_load("a", "b") == pytest.approx(mbps(100), rel=1e-3)


def test_allocation_zero_for_unusable_paths(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    path = Path.of(["a", "b", "d"])
    flow = Flow("f1", "a", "d", constant_demand(mbps(10)), path=path)
    network.fail_link("a", "b")
    network.allocate_rates([flow], now_s=0.0)
    assert flow.rate_bps == 0.0
    unrouted = Flow("f2", "a", "d", constant_demand(mbps(10)), path=None)
    network.allocate_rates([unrouted], now_s=0.0)
    assert unrouted.rate_bps == 0.0


def test_path_queries(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    path = Path.of(["a", "b", "d"])
    links = diamond.index().compile_path(path).link_indices
    assert network.path_is_usable(path)
    assert not (network.link_state_codes()[links] == LinkState.FAILED).any()
    network.fail_link("b", "d")
    assert not network.path_is_usable(path)
    assert (network.link_state_codes()[links] == LinkState.FAILED).any()
    assert network.max_rtt() > 0


# --------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------- #
class _StaticController:
    """Assigns each flow its shortest path once and never changes it."""

    def initialise(self, network, flows, now_s):
        for flow in flows:
            nodes = network.topology.shortest_path(flow.origin, flow.destination)
            flow.path = Path.of(nodes)

    def control(self, network, flows, now_s):
        return None


def test_engine_runs_and_samples(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    flows = [Flow("f1", "a", "d", constant_demand(mbps(10)))]
    engine = SimulationEngine(
        network, flows, _StaticController(), time_step_s=0.1, sample_interval_s=0.2
    )
    result = engine.run(duration_s=1.0)
    assert len(result.samples) >= 5
    assert result.samples[-1].total_rate_bps == pytest.approx(mbps(10))
    assert result.times() == sorted(result.times())
    assert max(result.series("total_demand_bps")) == pytest.approx(mbps(10))
    assert result.samples[-1].flow_rates["f1"] == pytest.approx(mbps(10))


def test_engine_applies_scheduled_failures(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    flows = [Flow("f1", "a", "d", constant_demand(mbps(10)))]
    failures = [
        TopologyChange(0.5, "link", "fail", ("a", "b")),
        TopologyChange(1.5, "link", "repair", ("a", "b")),
    ]
    engine = SimulationEngine(
        network,
        flows,
        _StaticController(),
        time_step_s=0.1,
        failures=failures,
        monitored_arcs=[("a", "b")],
    )
    result = engine.run(duration_s=2.0)
    rates = [sample.flow_rates["f1"] for sample in result.samples]
    times = result.times()
    failed_window = [rate for time, rate in zip(times, rates, strict=True) if 0.6 <= time <= 1.4]
    recovered = [rate for time, rate in zip(times, rates, strict=True) if time >= 1.6]
    assert all(rate == 0.0 for rate in failed_window)
    assert recovered[-1] == pytest.approx(mbps(10))
    assert len(result.arc_load_series("a", "b")) == len(times)


def test_engine_validation(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    flows = [
        Flow("dup", "a", "d", constant_demand(1.0)),
        Flow("dup", "a", "d", constant_demand(1.0)),
    ]
    with pytest.raises(SimulationError):
        SimulationEngine(network, flows, _StaticController())
    with pytest.raises(SimulationError):
        SimulationEngine(network, [], _StaticController(), time_step_s=0.0)
    engine = SimulationEngine(network, [], _StaticController())
    with pytest.raises(SimulationError):
        engine.run(duration_s=0.0)


def test_due_window_and_change_validation():
    changes = [
        TopologyChange(2.0, "link", "repair", ("a", "b")),
        TopologyChange(1.0, "link", "fail", ("a", "b")),
    ]
    fired = due(changes, 0.5, 1.5)
    assert len(fired) == 1
    assert fired[0].action == "fail"
    assert [change.action for change in due(changes, 0.0, 2.0)] == ["fail", "repair"]

    with pytest.raises(ConfigurationError):
        TopologyChange(1.0, "link", "explode", ("a", "b"))
    with pytest.raises(ConfigurationError, match="finite"):
        TopologyChange(float("nan"), "link", "fail", ("a", "b"))


def test_engine_rejects_a_change_naming_an_unknown_element(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    for change in (
        TopologyChange(1.0, "link", "fail", ("a", "d")),
        TopologyChange(99.0, "node", "fail", ("z",)),  # past the run's end, checked anyway
    ):
        with pytest.raises(ConfigurationError, match="unknown"):
            SimulationEngine(network, [], _StaticController(), failures=[change])
