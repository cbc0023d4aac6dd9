"""Equivalence tests: vectorized engine vs the dict-based reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.routing import Path
from repro.simulator import (
    Flow,
    LinkState,
    SimulatedNetwork,
    constant_demand,
    reference_max_min_rates,
)
from repro.topology import random_connected_topology
from repro.units import mbps


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
@st.composite
def allocation_scenarios(draw):
    """A random network plus flows on shortest paths with random demands.

    Includes zero demands and randomly failed/sleeping links, so the oracle
    comparison also covers the freezing edge cases.
    """
    num_nodes = draw(st.integers(min_value=4, max_value=10))
    max_links = num_nodes * (num_nodes - 1) // 2
    num_links = draw(
        st.integers(min_value=num_nodes - 1, max_value=min(max_links, 2 * num_nodes))
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    topology = random_connected_topology(num_nodes, num_links, seed=seed)
    network = SimulatedNetwork(topology)

    nodes = topology.nodes()
    num_flows = draw(st.integers(min_value=1, max_value=12))
    flows = []
    for index in range(num_flows):
        origin = draw(st.sampled_from(nodes))
        destination = draw(st.sampled_from(nodes))
        demand = draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=mbps(500), allow_nan=False),
            )
        )
        path = (
            Path.of([origin])
            if origin == destination
            else Path.of(topology.shortest_path(origin, destination))
        )
        if draw(st.booleans()) or origin == destination:
            assigned = path
        else:
            assigned = None  # unrouted flow
        flows.append(
            Flow(f"f{index}", origin, destination, constant_demand(demand), path=assigned)
        )

    # Randomly disturb link states (fail first; sleeping requires ACTIVE).
    asleep = []
    for key in topology.link_keys():
        choice = draw(st.integers(min_value=0, max_value=9))
        if choice == 0:
            network.fail_link(*key)
        elif choice == 1:
            asleep.append(key)
    network.sleep_idle_links(~topology.index().link_mask(asleep))
    return network, flows


# --------------------------------------------------------------------- #
# Property: the vectorized allocation matches the seed oracle
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(scenario=allocation_scenarios())
def test_vectorized_rates_match_reference_oracle(scenario):
    network, flows = scenario
    expected_rates, expected_loads = reference_max_min_rates(network, flows, now_s=0.0)

    network.allocate_rates(flows, now_s=0.0)

    for flow in flows:
        assert flow.rate_bps == pytest.approx(
            expected_rates[flow.flow_id], rel=1e-9, abs=1e-6
        )
    for arc, expected in expected_loads.items():
        assert network.arc_load(*arc) == pytest.approx(expected, rel=1e-9, abs=1e-3)


def test_zero_demand_flow_does_not_starve_others(diamond, cisco_model):
    """A zero-demand routable flow freezes without starving the filling.

    The seed implementation broke out of the progressive filling on the
    first zero-size step, zeroing every other flow; both implementations
    now freeze the idle flow and keep filling (and must stay in parity).
    """
    network = SimulatedNetwork(diamond, cisco_model)
    path = Path.of(["a", "b", "d"])
    flows = [
        Flow("idle", "a", "d", constant_demand(0.0), path=path),
        Flow("busy", "a", "d", constant_demand(mbps(50)), path=path),
    ]
    expected_rates, _ = reference_max_min_rates(network, flows, now_s=0.0)
    network.allocate_rates(flows, now_s=0.0)
    for flow in flows:
        assert flow.rate_bps == pytest.approx(expected_rates[flow.flow_id], abs=1e-6)
    assert flows[0].rate_bps == 0.0
    assert flows[1].rate_bps == pytest.approx(mbps(50))


def test_trivial_single_node_path(diamond, cisco_model):
    """A one-node path crosses no arcs and receives its full demand."""
    network = SimulatedNetwork(diamond, cisco_model)
    flow = Flow("self", "a", "a", constant_demand(mbps(3)), path=Path.of(["a"]))
    expected_rates, _ = reference_max_min_rates(network, [flow], now_s=0.0)
    network.allocate_rates([flow], now_s=0.0)
    assert flow.rate_bps == pytest.approx(expected_rates["self"])
    assert flow.rate_bps == pytest.approx(mbps(3))


# --------------------------------------------------------------------- #
# Arc table and array views
# --------------------------------------------------------------------- #
def test_compile_path_is_memoised_and_validates(diamond, cisco_model):
    table = SimulatedNetwork(diamond, cisco_model).topology.index()
    path = Path.of(["a", "b", "d"])
    compiled = table.compile_path(path)
    assert compiled is table.compile_path(Path.of(["a", "b", "d"]))
    assert compiled.arc_indices.size == 2
    assert [table.arc_keys[index] for index in compiled.arc_indices] == [
        ("a", "b"),
        ("b", "d"),
    ]
    with pytest.raises(SimulationError):
        table.compile_path(Path.of(["a", "d"]))  # no direct a-d arc


def test_link_vectors_track_state_machines(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    num_links = len(diamond.links())
    assert network.link_usable_vector().all()
    network.fail_link("a", "b")
    network.sleep_idle_links(~diamond.index().link_mask([("a", "c")]))
    usable = network.link_usable_vector()
    codes = network.link_state_codes()
    assert usable.sum() == num_links - 2
    histogram = np.bincount(codes, minlength=len(LinkState))
    assert histogram[LinkState.FAILED] == 1
    assert histogram[LinkState.SLEEPING] == 1
    assert histogram[LinkState.ACTIVE] == num_links - 2


def test_arc_load_vector_alignment(diamond, cisco_model):
    network = SimulatedNetwork(diamond, cisco_model)
    flow = Flow("f", "a", "d", constant_demand(mbps(10)), path=Path.of(["a", "b", "d"]))
    network.allocate_rates([flow], now_s=0.0)
    vector = network.arc_load_vector()
    table = network.topology.index()
    assert vector[table.arc_index[("a", "b")]] == pytest.approx(mbps(10))
    assert vector[table.arc_index[("b", "a")]] == 0.0
    assert network.arc_load("nope", "nowhere") == 0.0
