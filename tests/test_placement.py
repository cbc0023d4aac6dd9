"""The one placement kernel under both REsPoNse halves (``core/placement.py``).

Offline, ``activate_paths`` is pinned against its name-keyed reference in
``test_load_vector.py``; online, fig7 / fig8a / fig8b are pinned by digest in
``test_experiments.py``.  Here: the kernel's two rules on their own, and the
online controller waking on-demand tables in order, as the paper and
``ResponsePlan.on_demand`` put it — not onto the least-loaded one.
"""

import numpy as np

from repro.core import ResponsePlan, ResponseTEController, TEConfig
from repro.core.placement import InstalledPaths, choose, usable
from repro.routing import RoutingTable
from repro.simulator import Flow, LinkState, SimulatedNetwork, SimulationEngine, constant_demand
from repro.topology import Topology
from repro.units import mbps

PAIR = ("s", "t")


def three_routes() -> Topology:
    """``s`` to ``t`` over ``a`` (10 Mb/s), ``b`` (10 Mb/s) and ``c`` (100 Mb/s)."""
    topology = Topology("three-routes")
    for name in "sabct":
        topology.add_node(name)
    for middle, capacity in (("a", mbps(10)), ("b", mbps(10)), ("c", mbps(100))):
        topology.add_link("s", middle, capacity_bps=capacity, latency_s=0.001)
        topology.add_link(middle, "t", capacity_bps=capacity, latency_s=0.001)
    return topology


def three_route_plan(topology, cisco_model) -> ResponsePlan:
    return ResponsePlan.from_tables(
        topology,
        cisco_model,
        always_on_table=RoutingTable({PAIR: ["s", "a", "t"]}, name="always-on"),
        on_demand_tables=[
            RoutingTable({PAIR: ["s", "b", "t"]}, name="on-demand-1"),
            RoutingTable({PAIR: ["s", "c", "t"]}, name="on-demand-2"),
        ],
    )


def test_choose_takes_the_first_fit_else_the_most_headroom(cisco_model):
    topology = three_routes()
    index = topology.index()
    plan = three_route_plan(topology, cisco_model)
    entries = InstalledPaths(index, plan.tables()).of(PAIR)
    assert [entry.table_index for entry in entries] == [0, 1, 2]
    assert [entry.path for entry in entries] == [table.path(*PAIR) for table in plan.tables()]
    capacity = index.arc_capacity
    limit = capacity * 0.9 + 1e-9
    loads = np.zeros(index.num_arcs)

    # 8 Mb/s fits the first table's 9 Mb/s budget.
    assert choose(loads, limit, capacity, entries, mbps(8)) == (entries[0], False)
    # 12 Mb/s fits only route c; the least-loaded rule would agree here.
    assert choose(loads, limit, capacity, entries, mbps(12)) == (entries[2], False)
    # Nothing fits 200 Mb/s: the most bottleneck headroom wins, flagged.
    assert choose(loads, limit, capacity, entries, mbps(200)) == (entries[2], True)
    # A failed link on route c leaves a and b, equally roomy: the first wins.
    link_ok = ~index.link_mask([("c", "t")])
    assert usable(entries, link_ok) == entries[:2]
    assert choose(loads, limit, capacity, entries[:2], mbps(200)) == (entries[0], True)


def test_controller_wakes_the_first_on_demand_table_that_fits(cisco_model):
    """Two 6 Mb/s flows overflow the always-on route's 10 Mb/s.  The first
    flow's 6 Mb/s fits on-demand table 1 (route b, 60 %) although table 2
    (route c, 6 %) is less loaded: it goes to table 1, and route c sleeps."""
    topology = three_routes()
    plan = three_route_plan(topology, cisco_model)
    network = SimulatedNetwork(topology, cisco_model, wake_delay_s=0.01)
    flows = [Flow(f"f{index}", *PAIR, constant_demand(mbps(6))) for index in range(2)]
    controller = ResponseTEController(plan, TEConfig(probe_interval_s=0.1))
    engine = SimulationEngine(network, flows, controller, time_step_s=0.05)
    final = engine.run(duration_s=1.0).samples[-1]

    first, second = (table.path(*PAIR) for table in plan.on_demand)
    assert flows[0].path is first
    assert flows[1].path is plan.always_on_table.path(*PAIR)
    assert not any(flow.path is second for flow in flows)
    assert network.link_state_codes()[topology.index().link_index[("c", "s")]] == LinkState.SLEEPING
    assert final.total_rate_bps == mbps(12)
