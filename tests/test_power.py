"""Tests for the power models and network-wide power accounting."""

import pytest

from repro.exceptions import TopologyError
from repro.power import (
    AlternativeHardwarePowerModel,
    CHASSIS_REDUCTION_FACTOR,
    CISCO_CHASSIS_POWER_W,
    CiscoRouterPowerModel,
    CommoditySwitchPowerModel,
    full_power,
    line_card_power_for_capacity,
    network_power,
)
from repro.power.cisco import (
    OC3_PORT_POWER_W,
    OC48_PORT_POWER_W,
    OC192_PORT_POWER_W,
)
from repro.topology import Topology
from repro.units import gbps, mbps


# --------------------------------------------------------------------- #
# Per-element models
# --------------------------------------------------------------------- #
def test_line_card_power_classes():
    assert line_card_power_for_capacity(mbps(155)) == OC3_PORT_POWER_W
    assert line_card_power_for_capacity(gbps(2.5)) == OC48_PORT_POWER_W
    assert line_card_power_for_capacity(gbps(10)) == OC192_PORT_POWER_W
    # Intermediate speeds round up to the next class.
    assert line_card_power_for_capacity(gbps(1)) == OC48_PORT_POWER_W


def test_cisco_chassis_dominates_router_budget(diamond, cisco_model):
    node = diamond.node("a")
    assert cisco_model.chassis_power_w(node) == CISCO_CHASSIS_POWER_W
    arc = diamond.arc("a", "b")
    assert cisco_model.port_power_w(arc) == OC3_PORT_POWER_W


def test_cisco_amplifier_power_by_length():
    model = CiscoRouterPowerModel()
    topo = Topology()
    topo.add_node("x")
    topo.add_node("y")
    topo.add_link("x", "y", capacity_bps=gbps(10), length_km=400.0)
    arc = topo.arc("x", "y")
    assert model.amplifier_power_w(arc) == pytest.approx(5 * 1.2)
    short = CiscoRouterPowerModel(include_amplifiers=False)
    assert short.amplifier_power_w(arc) == 0.0


def test_alternative_model_reduces_chassis_only(diamond):
    cisco = CiscoRouterPowerModel()
    alternative = AlternativeHardwarePowerModel()
    node = diamond.node("a")
    arc = diamond.arc("a", "b")
    assert alternative.chassis_power_w(node) == pytest.approx(
        cisco.chassis_power_w(node) / CHASSIS_REDUCTION_FACTOR
    )
    assert alternative.port_power_w(arc) == cisco.port_power_w(arc)


def test_commodity_model_fixed_fraction():
    model = CommoditySwitchPowerModel(peak_power_w=100.0, fixed_fraction=0.9, ports_at_peak=10)
    assert model.fixed_power_w == pytest.approx(90.0)
    assert model.per_port_power_w == pytest.approx(1.0)
    assert model.peak_power_w == 100.0


def test_commodity_model_validates_arguments():
    with pytest.raises(ValueError):
        CommoditySwitchPowerModel(fixed_fraction=1.5)
    with pytest.raises(ValueError):
        CommoditySwitchPowerModel(ports_at_peak=0)


def test_host_nodes_draw_no_power(fattree4, commodity_model):
    host = fattree4.node("host0_0_0")
    assert commodity_model.chassis_power_w(host) == 0.0
    arc = fattree4.arc("host0_0_0", "edge0_0")
    assert commodity_model.port_power_w(arc) == 0.0
    # The switch-side port of the same link does draw power.
    reverse = fattree4.arc("edge0_0", "host0_0_0")
    assert commodity_model.port_power_w(reverse) > 0.0


# --------------------------------------------------------------------- #
# Network accounting
# --------------------------------------------------------------------- #
def test_full_power_breakdown(diamond, cisco_model):
    breakdown = full_power(diamond, cisco_model)
    assert breakdown.chassis_w == pytest.approx(4 * CISCO_CHASSIS_POWER_W)
    assert breakdown.ports_w == pytest.approx(8 * OC3_PORT_POWER_W)
    assert breakdown.total_w == pytest.approx(
        breakdown.chassis_w + breakdown.ports_w + breakdown.amplifiers_w
    )
    assert breakdown.as_dict()["total_w"] == pytest.approx(breakdown.total_w)


def test_network_power_subset_is_smaller(diamond, cisco_model):
    subset = network_power(
        diamond, cisco_model, active_nodes=["a", "b", "d"], active_links=[("a", "b"), ("b", "d")]
    )
    assert subset.total_w < full_power(diamond, cisco_model).total_w
    assert subset.chassis_w == pytest.approx(3 * CISCO_CHASSIS_POWER_W)
    assert subset.ports_w == pytest.approx(4 * OC3_PORT_POWER_W)


def test_links_with_inactive_endpoint_do_not_count(diamond, cisco_model):
    subset = network_power(diamond, cisco_model, active_nodes=["a", "b"])
    # Only the a-b link has both endpoints active.
    assert subset.ports_w == pytest.approx(2 * OC3_PORT_POWER_W)


def test_unknown_active_elements_rejected(diamond, cisco_model):
    with pytest.raises(TopologyError):
        network_power(diamond, cisco_model, active_nodes=["zz"])
    with pytest.raises(TopologyError):
        network_power(diamond, cisco_model, active_links=[("a", "zz")])


def test_always_powered_nodes_counted_even_if_omitted(cisco_model):
    topo = Topology()
    topo.add_node("edge", always_powered=True)
    topo.add_node("core")
    topo.add_link("edge", "core", capacity_bps=mbps(100))
    subset = network_power(topo, cisco_model, active_nodes=["core"])
    assert subset.chassis_w == pytest.approx(2 * CISCO_CHASSIS_POWER_W)


def test_fattree_full_power_counts_only_switches(fattree4, commodity_model):
    breakdown = full_power(fattree4, commodity_model)
    num_switches = 20
    assert breakdown.chassis_w == pytest.approx(num_switches * commodity_model.fixed_power_w)
    # 48 links, but host-side ports are free: 16 host links contribute one
    # port each, 32 switch-switch links contribute two ports each.
    expected_ports = (16 * 1 + 32 * 2) * commodity_model.per_port_power_w
    assert breakdown.ports_w == pytest.approx(expected_ports)
