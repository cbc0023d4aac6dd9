"""Tests for the power models and network-wide power accounting."""

import random

import pytest

from repro.exceptions import TopologyError
from repro.optim import element_power_coefficients
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
from repro.scenario.spec import TopologySpec
from repro.topology import Topology, link_key
from repro.units import gbps, mbps

from test_calibration import SHIPPED_TOPOLOGIES  # noqa: I001


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


# --------------------------------------------------------------------- #
# The per-element memo against the body it replaced
# --------------------------------------------------------------------- #
def reference_network_power(topology, model, active_nodes=None, active_links=None):
    """``network_power`` as it was before the element powers were kept on the
    topology's index: every figure re-derived from the model, in the same
    addition order."""
    if active_nodes is None:
        active = set(topology.nodes())
    else:
        active = set(active_nodes)
        active |= {name for name in topology.nodes() if topology.node(name).always_powered}
    if active_links is None:
        candidate_keys = topology.link_keys()
    else:
        candidate_keys = [link_key(u, v) for (u, v) in active_links]
    active_link_keys = {key for key in candidate_keys if key[0] in active and key[1] in active}
    chassis_w = 0.0
    for name in sorted(active):
        node = topology.node(name)
        if node.kind == "host":
            continue
        chassis_w += model.chassis_power_w(node)
    ports_w = 0.0
    amplifiers_w = 0.0
    for key in sorted(active_link_keys):
        link = topology.link(*key)
        for src, dst in link.arc_keys():
            if topology.node(src).kind == "host":
                continue
            arc = topology.arc(src, dst)
            ports_w += model.port_power_w(arc)
            amplifiers_w += model.amplifier_power_w(arc)
    return chassis_w, ports_w, amplifiers_w


def reference_element_power_coefficients(topology, model):
    node_power = {}
    for name in topology.nodes():
        node = topology.node(name)
        node_power[name] = 0.0 if node.kind == "host" else model.chassis_power_w(node)
    link_power = {}
    for link in topology.links():
        total = 0.0
        for src, dst in link.arc_keys():
            if topology.node(src).kind == "host":
                continue
            arc = topology.arc(src, dst)
            total += model.port_power_w(arc) + model.amplifier_power_w(arc)
        link_power[link.key] = total
    return node_power, link_power


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_network_power_equals_the_per_call_derivation(name):
    topology = TopologySpec(name, params=SHIPPED_TOPOLOGIES[name]).build()
    rng = random.Random(f"power:{name}")
    nodes, links = topology.nodes(), topology.link_keys()
    for model in (
        CiscoRouterPowerModel(),
        CiscoRouterPowerModel(include_amplifiers=False),
        AlternativeHardwarePowerModel(),
        CommoditySwitchPowerModel(),
    ):
        subsets = [(None, None), (nodes, None), (None, links), ([], []), (nodes[:1], links)]
        for _ in range(25):
            some_links = rng.sample(links, rng.randint(0, len(links)))
            # Either orientation, duplicates allowed.
            some_links += [(v, u) for u, v in some_links[: rng.randint(0, 3)]]
            subsets.append((rng.sample(nodes, rng.randint(0, len(nodes))), some_links))
            subsets.append((rng.sample(nodes, rng.randint(0, len(nodes))), None))
        for active_nodes, active_links in subsets:
            found = network_power(topology, model, active_nodes, active_links)
            expected = reference_network_power(topology, model, active_nodes, active_links)
            assert (found.chassis_w, found.ports_w, found.amplifiers_w) == expected
        whole = reference_network_power(topology, model)
        full = full_power(topology, model)
        assert (full.chassis_w, full.ports_w, full.amplifiers_w) == whole
        assert full_power(topology, model) is full
        assert element_power_coefficients(topology, model) == (
            reference_element_power_coefficients(topology, model)
        )


def test_element_powers_are_derived_once_per_model_and_topology_object(diamond):
    calls = []

    class Counting(CiscoRouterPowerModel):
        def chassis_power_w(self, node):
            calls.append(node.name)
            return super().chassis_power_w(node)

    model = Counting()
    for _ in range(3):
        full_power(diamond, model)
        network_power(diamond, model, ["a", "b"], [("a", "b")])
    assert sorted(calls) == list("abcd")
    # Another model object, or the topology after a change, is derived anew.
    assert network_power(diamond, Counting(), ["a"]).chassis_w > 0 and len(calls) == 8
    diamond.add_node("e")
    assert full_power(diamond, model).chassis_w == 5 * model.chassis_power_w(diamond.node("e"))
