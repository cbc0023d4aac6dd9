"""The filling loop's branches, one small case each, and the demand rules of
both entry points.

Every case is allocated three ways and compared on the bytes: grouped (one
incidence row per path, flows mapped onto it), one incidence row per flow,
and the dict oracle of :mod:`repro.simulator.reference`.  The oracle runs on
a plain link table (:class:`LinkTable`) instead of a topology so that a
zero-capacity arc — which a ``Topology`` refuses — can be a case too.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.obs import trace
from repro.routing import Path
from repro.simulator import (
    AggregatedFlows,
    Flow,
    SimulatedNetwork,
    allocate_aggregated,
    constant_demand,
    reference_max_min_rates,
)
from repro.simulator.fairness import (
    DENSE_KEYS_PER_FLOW,
    Incidence,
    last_kernel_stats,
    max_min_fair_rates,
)
from repro.topology.fattree import build_fattree, hosts


class LinkTable:
    """Just enough of a network for the dict oracle: named links, all usable."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.topology = self
        self.arcs = [arc for u, v in capacity for arc in ((u, v), (v, u))]

    def arc_keys(self):
        return list(self.arcs)

    def link(self, u, v):
        key = (u, v) if (u, v) in self.capacity else (v, u)
        return SimpleNamespace(capacity_bps=self.capacity[key])

    def path_is_usable(self, _path):
        return True


def three_ways(capacity, routes, members):
    """Rates of *members* ``(group, demand)`` over *routes* (node lists):
    grouped, one row per flow and the dict oracle must agree on the bytes.
    Returns the rates and the grouped run's traced kernel stats."""
    table = LinkTable(capacity)
    arc_index = {arc: index for index, arc in enumerate(table.arcs)}
    capacities = np.array([table.link(*arc).capacity_bps for arc in table.arcs])
    paths = [Path.of(nodes) for nodes in routes]
    arcs_of_group = [
        np.array([arc_index[arc] for arc in path.arc_keys()], dtype=np.int64)
        for path in paths
    ]
    flow_group = np.array([group for group, _ in members], dtype=np.int64)
    demands = np.array([demand for _, demand in members])

    with trace.collect(trace.SpanCollector()):
        grouped = max_min_fair_rates(
            demands, capacities, Incidence(arcs_of_group, len(table.arcs), flow_group)
        )
        stats = last_kernel_stats()
    per_flow = max_min_fair_rates(
        demands,
        capacities,
        Incidence([arcs_of_group[group] for group in flow_group], len(table.arcs)),
    )
    flows = [
        Flow(f"f{index}", "x", "y", constant_demand(demand), path=paths[group])
        for index, (group, demand) in enumerate(members)
    ]
    expected, _ = reference_max_min_rates(table, flows)
    oracle = np.array([expected[flow.flow_id] for flow in flows])
    assert grouped.tobytes() == per_flow.tobytes() == oracle.tobytes()
    return grouped, stats


def test_two_arcs_exhaust_in_one_iteration():
    # Group 0 crosses both arcs: it must freeze, and leave them, once.
    rates, stats = three_ways(
        {("a", "b"): 10.0, ("b", "c"): 10.0},
        [["a", "b", "c"], ["a", "b"], ["b", "c"]],
        [(0, 100.0), (1, 100.0), (2, 100.0)],
    )
    assert rates.tolist() == [5.0] * 3
    assert stats["frozen_per_iteration"] == [3]


def test_demand_and_arc_freeze_in_one_iteration():
    # The step of 5 meets two demands and empties a-b: the 5-flow on a-b
    # is due on both counts and must be taken off its arcs once.
    rates, stats = three_ways(
        {("a", "b"): 10.0, ("b", "c"): 100.0},
        [["a", "b"], ["b", "c"]],
        [(0, 5.0), (0, 100.0), (1, 5.0)],
    )
    assert rates.tolist() == [5.0, 5.0, 5.0]
    assert stats["frozen_per_iteration"] == [3]


def test_zero_capacity_arc_freezes_its_groups_at_zero():
    rates, stats = three_ways(
        {("a", "b"): 0.0, ("b", "c"): 10.0},
        [["a", "b", "c"], ["b", "c"]],
        [(0, 3.0), (0, 3.0), (1, 4.0)],
    )
    assert rates.tolist() == [0.0, 0.0, 4.0]
    assert stats["frozen_per_iteration"] == [2, 1]


def test_zero_negative_and_signed_zero_demands():
    rates, _ = three_ways(
        {("a", "b"): 10.0, ("b", "c"): 10.0},
        [["a", "b"], ["b", "c"]],
        [(0, 0.0), (0, -0.0), (0, 3.0), (1, -0.0), (1, -2.0), (1, 7.0)],
    )
    assert rates.tolist() == [0.0, 0.0, 3.0, 0.0, 0.0, 7.0]
    # Rates are +0.0 whatever the sign of a zero demand.
    assert not np.signbit(rates).any()


def test_group_without_arcs_and_empty_groups():
    # Group 0 crosses nothing (demand-limited only); groups 2 and 3 hold no
    # flow, so the arcs only they cross must not bound anybody.
    rates, _ = three_ways(
        {("a", "b"): 10.0, ("b", "c"): 1.0, ("c", "d"): 1.0},
        [["a"], ["a", "b"], ["b", "c"], ["c", "d"]],
        [(0, 6.0), (1, 4.0), (1, 8.0)],
    )
    assert rates.tolist() == [6.0, 4.0, 6.0]


def test_spent_lowest_demand_value_is_skipped():
    # Value 1 freezes on its demand, value 10's only flow then freezes on
    # b-c, and value 50 must become the demand limit although 10 is lower.
    rates, stats = three_ways(
        {("a", "b"): 100.0, ("b", "c"): 4.0},
        [["a", "b"], ["b", "c"]],
        [(0, 1.0), (1, 10.0), (0, 50.0)],
    )
    assert rates.tolist() == [1.0, 4.0, 50.0]
    assert stats["frozen_per_iteration"] == [1, 1, 1]


@pytest.mark.parametrize("distinct_demands", [False, True], ids=["binned", "sorted"])
def test_both_collapse_regimes(distinct_demands):
    rng = np.random.default_rng(3)
    nodes = [f"n{index}" for index in range(6)]
    capacity = {(u, v): 40.0 for u, v in zip(nodes, nodes[1:], strict=False)}
    routes = [nodes[start : start + 3] for start in range(4)] + [nodes[:2], nodes]
    groups = rng.integers(0, len(routes), size=40)
    demands = (
        rng.permutation(40) * 0.5 + 0.25 if distinct_demands else rng.choice([1.0, 3.0, 9.0], 40)
    )
    num_values = np.unique(demands).size
    dense = num_values * len(routes) <= DENSE_KEYS_PER_FLOW * demands.size
    assert dense != distinct_demands
    rates, stats = three_ways(capacity, routes, list(zip(groups, demands, strict=True)))
    assert stats["classes"] == len(set(zip(groups.tolist(), demands.tolist(), strict=True)))
    assert 0.0 < rates.max()


# --------------------------------------------------------------------- #
# Demand rules: the aggregated and the per-flow entry points agree
# --------------------------------------------------------------------- #


def shared_path_pair():
    """A k=4 fat-tree and one host-to-host path."""
    topology = build_fattree(4)
    endpoints = hosts(topology)
    return topology, Path.of(topology.shortest_path(endpoints[0], endpoints[-1]))


def both_entries(demands):
    """Rates of flows sharing one path, aggregated and per flow."""
    topology, path = shared_path_pair()
    table = AggregatedFlows.from_arrays([path], [0] * len(demands), demands)
    aggregated = allocate_aggregated(SimulatedNetwork(topology), table)
    flows = [
        Flow(f"f{index}", path.origin, path.destination, constant_demand(demand), path=path)
        for index, demand in enumerate(demands)
    ]
    SimulatedNetwork(topology).allocate_rates(flows)
    return aggregated, np.array([flow.rate_bps for flow in flows])


@pytest.mark.parametrize(
    "demands",
    [[-1e6, 1e6], [-0.0, 1e6], [float("inf"), 1e6], [float("inf"), float("-inf")]],
    ids=["negative", "signed-zero", "inf", "both-infinities"],
)
def test_aggregated_matches_per_flow_on_odd_demands(demands):
    aggregated, per_flow = both_entries(demands)
    assert aggregated.tobytes() == per_flow.tobytes()
    assert (aggregated[np.array(demands) <= 0.0] == 0.0).all()


def test_nan_demand_raises_at_both_entries():
    topology, path = shared_path_pair()
    table = AggregatedFlows.from_arrays([path, path], [1, 0], [1e6, float("nan")])
    with pytest.raises(SimulationError, match="flow 1 has a NaN demand"):
        allocate_aggregated(SimulatedNetwork(topology), table)
    with pytest.raises(SimulationError, match="flow 0 has a NaN demand"):
        allocate_aggregated(
            SimulatedNetwork(topology), table, demands_bps=np.array([np.nan, 1e6])
        )
    flows = [
        Flow("quiet", path.origin, path.destination, constant_demand(1e6), path=path),
        Flow("broken", path.origin, path.destination, constant_demand(np.nan), path=path),
    ]
    with pytest.raises(SimulationError, match="'broken' has a NaN demand"):
        SimulatedNetwork(topology).allocate_rates(flows)


# --------------------------------------------------------------------- #
# Collapse reuse: an incidence keeps its last collapse
# --------------------------------------------------------------------- #

#: Three groups over three arcs, three flows each, flows of one group not
#: adjacent.
REUSE_ARCS = [np.array([0]), np.array([0, 1]), np.array([1, 2])]
REUSE_GROUPS = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=np.int64)
REUSE_CAPACITY = np.array([12.0, 9.0, 30.0])


def reuse_steps(rows):
    """Allocate each demand row on one kept incidence; every step must equal
    a fresh incidence's on the bytes.  Returns each step's collapse kind."""
    kept = Incidence(REUSE_ARCS, 3, REUSE_GROUPS)
    kinds = []
    for row in rows:
        rates = max_min_fair_rates(row, REUSE_CAPACITY, kept)
        kinds.append(last_kernel_stats()["collapse"])
        fresh = max_min_fair_rates(row, REUSE_CAPACITY, Incidence(REUSE_ARCS, 3, REUSE_GROUPS))
        assert last_kernel_stats()["collapse"] == "full"
        assert rates.tobytes() == fresh.tobytes()
    return kinds


#: Two values: 1.0 on flows 0-2 (one class per group), 8.0 on the rest.
BASE_ROW = np.array([1.0, 1.0, 1.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0])


def test_reuse_under_uniform_scaling():
    assert reuse_steps([BASE_ROW, BASE_ROW * 1.5, BASE_ROW * 0.25]) == ["full", "reused", "reused"]


def test_reuse_refused_when_a_value_splits_across_groups():
    # Flow 1 is group 1's only 1.0 flow: its class keeps one value, but the
    # value run 1.0 no longer does.
    split = BASE_ROW.copy()
    split[1] = 2.0
    assert reuse_steps([BASE_ROW, split, split]) == ["full", "full", "reused"]


def test_reuse_refused_when_two_values_merge():
    merged = np.full(9, 8.0)
    assert reuse_steps([BASE_ROW, merged, merged * 2]) == ["full", "full", "reused"]


def test_reuse_refused_when_two_values_swap_order():
    swapped = np.where(BASE_ROW == 1.0, 8.0, 1.0)
    assert reuse_steps([BASE_ROW, swapped, BASE_ROW]) == ["full", "full", "full"]


def test_reuse_refused_when_a_class_splits():
    # Flow 3 leaves group 0's 8.0 class for a value of its own.
    row = BASE_ROW.copy()
    row[3] = 3.0
    assert reuse_steps([BASE_ROW, row]) == ["full", "full"]


def test_reuse_tells_signed_zeros_apart():
    # -0.0 sorts below 0.0 as int64 bits; swapping them reverses the runs.
    signed = np.where(BASE_ROW == 1.0, 0.0, -0.0)
    flipped = np.where(BASE_ROW == 1.0, -0.0, 0.0)
    assert reuse_steps([signed, flipped, flipped, signed]) == ["full", "full", "reused", "full"]


def test_reuse_sees_an_in_place_edit_of_the_same_demand_array():
    kept = Incidence(REUSE_ARCS, 3, REUSE_GROUPS)
    demands = BASE_ROW.copy()
    max_min_fair_rates(demands, REUSE_CAPACITY, kept)
    for flow, value in ((4, 3.0), (4, 8.0), (0, 8.0)):
        demands[flow] = value
        rates = max_min_fair_rates(demands, REUSE_CAPACITY, kept)
        assert last_kernel_stats()["collapse"] == "full"
        fresh = max_min_fair_rates(demands, REUSE_CAPACITY, Incidence(REUSE_ARCS, 3, REUSE_GROUPS))
        assert rates.tobytes() == fresh.tobytes()


def test_reuse_never_writes_into_the_kept_collapse():
    kept = Incidence(REUSE_ARCS, 3, REUSE_GROUPS)
    max_min_fair_rates(BASE_ROW, REUSE_CAPACITY, kept)
    classes = kept.classes
    assert not any(array.flags.writeable for array in classes)
    max_min_fair_rates(BASE_ROW * 3.0, REUSE_CAPACITY, kept)
    assert kept.classes is classes


def test_nan_demand_raises_and_leaves_the_next_call_correct():
    topology, path = shared_path_pair()
    table = AggregatedFlows.from_arrays([path], [0, 0, 0], [4e8, 4e8, 9e8])
    network = SimulatedNetwork(topology)
    allocate_aggregated(network, table)
    with pytest.raises(SimulationError, match="flow 1 has a NaN demand"):
        allocate_aggregated(network, table, demands_bps=np.array([4e8, np.nan, 9e8]))
    kinds = []
    for demands in ([4e8, 4e8, 9e8], [5e8, 5e8, 2e8], [5e8, 5e8, 2e8]):
        rates = allocate_aggregated(network, table, demands_bps=np.array(demands))
        kinds.append(last_kernel_stats()["collapse"])
        fresh = allocate_aggregated(
            SimulatedNetwork(topology), table, demands_bps=np.array(demands)
        )
        assert rates.tobytes() == fresh.tobytes()
    # The raise came before the kernel: the first collapse is still kept.
    assert kinds == ["reused", "full", "reused"]
