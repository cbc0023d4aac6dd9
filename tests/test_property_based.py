"""Property-based tests (hypothesis) for core data structures and invariants."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace
from repro.power import CiscoRouterPowerModel, full_power, network_power
from repro.routing import Path, link_loads, solve_mcf
from repro.routing.mcf import pairwise_sum
from repro.routing.ospf import ospf_invcap_routing
from repro.simulator import (
    AggregatedFlows,
    Flow,
    SimulatedNetwork,
    allocate_aggregated,
    constant_demand,
)
from repro.simulator.aggregate import UNROUTED_GROUP
from repro.simulator.fairness import Incidence, last_kernel_stats, max_min_fair_rates
from repro.simulator.reference import reference_max_min_rates
from repro.topology import random_connected_topology
from repro.traffic import TrafficMatrix, all_pairs, gravity_matrix
from repro.traffic.google_trace import google_volume_series, relative_changes
from repro.traffic.sinewave import sine_fraction
from repro.units import mbps

from nx_reference import to_networkx

MODEL = CiscoRouterPowerModel()


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
@st.composite
def small_topologies(draw):
    """Random connected topologies with 4-10 nodes."""
    num_nodes = draw(st.integers(min_value=4, max_value=10))
    max_links = num_nodes * (num_nodes - 1) // 2
    num_links = draw(st.integers(min_value=num_nodes - 1, max_value=min(max_links, 2 * num_nodes)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_connected_topology(num_nodes, num_links, seed=seed)


@st.composite
def demand_matrices(draw):
    """Random demand matrices over small node-name sets."""
    names = [f"n{i}" for i in range(draw(st.integers(min_value=2, max_value=6)))]
    pairs = all_pairs(names)
    demands = {}
    for pair in pairs:
        if draw(st.booleans()):
            demands[pair] = draw(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
            )
    return TrafficMatrix(demands)


# --------------------------------------------------------------------- #
# Traffic-matrix invariants
# --------------------------------------------------------------------- #
@given(demand_matrices(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_scaling_scales_total_linearly(matrix, factor):
    scaled = matrix.scaled(factor)
    assert abs(scaled.total_bps - matrix.total_bps * factor) <= 1e-6 * max(
        1.0, matrix.total_bps * factor
    )
    assert len(scaled) == len(matrix)


# --------------------------------------------------------------------- #
# Topology and routing invariants
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(small_topologies())
def test_random_topologies_are_connected_and_consistent(topology):
    assert nx.is_connected(to_networkx(topology).to_undirected())
    assert topology.num_arcs == 2 * topology.num_links
    degrees = sum(topology.degree(node) for node in topology.nodes())
    assert degrees == 2 * topology.num_links


@settings(max_examples=20, deadline=None)
@given(small_topologies())
def test_ospf_paths_are_valid_and_loop_free(topology):
    routing = ospf_invcap_routing(topology)
    for _pair, path in routing.items():
        assert path.is_valid(topology)
        assert len(set(path.nodes)) == len(path.nodes)


@settings(max_examples=20, deadline=None)
@given(small_topologies(), st.floats(min_value=1e3, max_value=5e7, allow_nan=False))
def test_link_loads_conserve_total_volume(topology, per_pair_demand):
    routing = ospf_invcap_routing(topology)
    nodes = topology.nodes()
    demands = TrafficMatrix.uniform([(nodes[0], nodes[-1]), (nodes[-1], nodes[0])], per_pair_demand)
    index = topology.index()
    loads = link_loads(topology, routing, demands)
    # Total volume leaving each origin equals its demand.
    for origin, _destination in demands.pairs():
        node = index.node_index[origin]
        outgoing = loads[index.arc_src == node].sum()
        incoming = loads[index.arc_dst == node].sum()
        assert outgoing - incoming >= -1e-6


@settings(max_examples=15, deadline=None)
@given(small_topologies())
def test_gravity_matrix_total_matches_request(topology):
    matrix = gravity_matrix(topology, total_traffic_bps=1e8)
    assert abs(matrix.total_bps - 1e8) <= 1.0
    assert all(demand >= 0 for _pair, demand in matrix.items())


@settings(max_examples=15, deadline=None)
@given(small_topologies())
def test_mcf_reports_utilisation_within_limit_when_feasible(topology):
    nodes = topology.nodes()
    demands = TrafficMatrix({(nodes[0], nodes[-1]): mbps(30)})
    result = solve_mcf(topology, demands)
    if result.feasible:
        assert result.max_utilisation <= 1.0 + 1e-6
        total_out = sum(
            load
            for (src, _), load in zip(topology.index().arc_keys, result.arc_loads, strict=True)
            if src == nodes[0]
        )
        assert total_out >= mbps(30) - 1e-3


# --------------------------------------------------------------------- #
# Power-accounting invariants
# --------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(small_topologies(), st.integers(min_value=0, max_value=10_000))
def test_subset_power_never_exceeds_full_power(topology, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    nodes = topology.nodes()
    keep = [name for name in nodes if rng.random() < 0.7]
    subset = network_power(topology, MODEL, active_nodes=keep)
    total = full_power(topology, MODEL)
    assert subset.total_w <= total.total_w + 1e-9
    assert subset.chassis_w >= 0 and subset.ports_w >= 0


@settings(max_examples=20, deadline=None)
@given(small_topologies())
def test_power_is_monotone_in_active_links(topology):
    links = topology.link_keys()
    half = links[: len(links) // 2]
    partial = network_power(topology, MODEL, active_links=half)
    complete = network_power(topology, MODEL, active_links=links)
    assert partial.total_w <= complete.total_w + 1e-9


# --------------------------------------------------------------------- #
# Simulator rate-allocation invariants
# --------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(
    small_topologies(),
    st.lists(st.floats(min_value=1e3, max_value=2e8, allow_nan=False), min_size=1, max_size=5),
)
def test_max_min_allocation_respects_capacity_and_demand(topology, demands):
    network = SimulatedNetwork(topology, MODEL)
    nodes = topology.nodes()
    path_nodes = topology.shortest_path(nodes[0], nodes[-1])
    flows = [
        Flow(f"f{i}", nodes[0], nodes[-1], constant_demand(demand), path=Path.of(path_nodes))
        for i, demand in enumerate(demands)
    ]
    network.allocate_rates(flows, now_s=0.0)
    for flow in flows:
        assert flow.rate_bps <= flow.offered_load(0.0) + 1e-6
        assert flow.rate_bps >= 0.0
    for src, dst in zip(path_nodes, path_nodes[1:], strict=False):
        assert network.arc_load(src, dst) <= topology.arc(src, dst).capacity_bps + 1e-3


# --------------------------------------------------------------------- #
# Max-min fairness: the one CSR loop vs test-side and dict references
# --------------------------------------------------------------------- #
@st.composite
def fairness_problems(draw):
    """Random stacked fairness problems over a shared flows×arcs incidence.

    Degenerate shapes appear on purpose: zero-demand flows, zero-capacity
    arcs, flows crossing no arc at all, single-flow problems.  Returns the
    stacked demand rows, the arc index array of every flow and the capacity
    vector.
    """
    num_flows = draw(st.integers(min_value=1, max_value=6))
    num_arcs = draw(st.integers(min_value=0, max_value=6))
    arcs_of_flow = [
        np.array(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_arcs - 1),
                    min_size=0,
                    max_size=4,
                    unique=True,
                )
            )
            if num_arcs
            else [],
            dtype=np.int64,
        )
        for _ in range(num_flows)
    ]
    value = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    )
    batch = draw(st.integers(min_value=1, max_value=5))
    demands = np.array(
        [[draw(value) for _ in range(num_flows)] for _ in range(batch)]
    )
    capacity = np.array([draw(value) for _ in range(num_arcs)])
    return demands, arcs_of_flow, capacity


def dense_python_filling(demands, arcs_of_flow, capacity):
    """Progressive filling in plain Python over a dense flows×arcs table.

    The test-side reference: no NumPy reductions, no CSR.  It performs the
    same float operations as the engine (a division per crossed arc, one
    subtraction per flow and per arc, the same freezing thresholds), so the
    comparison is exact.
    """
    num_flows, num_arcs = len(demands), len(capacity)
    crosses = [[arc in arcs for arc in range(num_arcs)] for arcs in arcs_of_flow]
    used = [any(row[arc] for row in crosses) for arc in range(num_arcs)]
    pending = [float(demand) for demand in demands]
    remaining = [float(value) for value in capacity]
    rates = [0.0] * num_flows
    active = [True] * num_flows
    for _ in range(num_flows + sum(used) + 1):
        if not any(active):
            break
        counts = [
            sum(1 for flow in range(num_flows) if active[flow] and crosses[flow][arc])
            for arc in range(num_arcs)
        ]
        limits = [remaining[arc] / counts[arc] for arc in range(num_arcs) if counts[arc]]
        limits += [pending[flow] for flow in range(num_flows) if active[flow]]
        step = max(min(limits), 0.0)
        for flow in range(num_flows):
            if active[flow]:
                rates[flow] += step
                pending[flow] -= step
        for arc in range(num_arcs):
            remaining[arc] -= step * counts[arc]
        before = sum(active)
        for flow in range(num_flows):
            on_exhausted_arc = any(
                crosses[flow][arc] and remaining[arc] <= 1e-9 for arc in range(num_arcs)
            )
            if pending[flow] <= 1e-9 or on_exhausted_arc:
                active[flow] = False
        if step <= 1e-12 and sum(active) == before:
            break
    return np.array(rates)


@settings(max_examples=120, deadline=None)
@given(problem=fairness_problems())
def test_sparse_serial_fairness_is_bit_identical_to_dense(problem):
    demands, arcs_of_flow, capacity = problem
    incidence = Incidence(arcs_of_flow, capacity.shape[0])
    for row in demands:
        sparse = max_min_fair_rates(row, capacity, incidence)
        dense = dense_python_filling(row, arcs_of_flow, capacity)
        assert np.array_equal(dense, sparse)


@settings(max_examples=60, deadline=None)
@given(problem=fairness_problems())
def test_sparse_incidence_reuse_matches_fresh_build(problem):
    demands, arcs_of_flow, capacity = problem
    incidence = Incidence(arcs_of_flow, capacity.shape[0])
    for row in demands:
        fresh = max_min_fair_rates(
            row, capacity, Incidence(arcs_of_flow, capacity.shape[0])
        )
        reused = max_min_fair_rates(row, capacity, incidence)
        assert np.array_equal(fresh, reused)


def test_sparse_fairness_edge_cases():
    no_arcs = np.array([], dtype=np.int64)
    shared_arc = np.array([0], dtype=np.int64)
    # All-zero demands freeze immediately at rate zero.
    zeros = max_min_fair_rates(
        np.zeros(3), np.array([mbps(10)]), Incidence([shared_arc] * 3, 1)
    )
    assert np.array_equal(zeros, np.zeros(3))
    # A flow crossing an exhausted (zero-capacity) arc is killed at zero
    # while the unconstrained flow still gets its full demand.
    rates = max_min_fair_rates(
        np.array([mbps(10), mbps(20)]),
        np.array([0.0]),
        Incidence([shared_arc, no_arcs], 1),
    )
    assert rates[0] == 0.0 and rates[1] == mbps(20)
    # Arcless problems are purely demand-limited.
    free = max_min_fair_rates(
        np.array([mbps(5)]), np.array([], dtype=float), Incidence([no_arcs], 0)
    )
    assert free[0] == mbps(5)
    # No flows at all: an empty allocation, whatever the arc table holds.
    nothing = max_min_fair_rates(np.zeros(0), np.array([mbps(1)]), Incidence([], 1))
    assert nothing.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=40,
    )
)
def test_pairwise_sum_is_order_fixed_and_accurate(values):
    array = np.array(values, dtype=float)
    total = pairwise_sum(array)
    assert total == pairwise_sum(np.array(values, dtype=float))
    assert total == pytest.approx(float(sum(values)), rel=1e-12, abs=1e-6)
    stacked = np.stack([array, array * 2.0]) if array.size else np.zeros((2, 0))
    batched = pairwise_sum(stacked)
    assert batched.shape == (2,)
    assert batched[0] == total


# --------------------------------------------------------------------- #
# Grouped incidence: aggregate-then-allocate == allocate-then-sum
# --------------------------------------------------------------------- #
@st.composite
def grouped_problems(draw):
    """A group-level incidence plus a member population per group.

    Groups with zero members appear on purpose: they put no flow on their
    arcs, so the grouped incidence must ignore those arcs entirely.
    """
    _demands, arcs_of_group, capacity = draw(fairness_problems())
    members = [draw(st.integers(min_value=0, max_value=3)) for _ in arcs_of_group]
    value = st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    flow_group = np.array(
        [group for group, count in enumerate(members) for _ in range(count)],
        dtype=np.int64,
    )
    member_demands = np.array([draw(value) for _ in flow_group])
    return member_demands, flow_group, arcs_of_group, capacity


@settings(max_examples=100, deadline=None)
@given(problem=grouped_problems())
def test_grouped_fairness_matches_expanded_dense(problem):
    demands, flow_group, arcs_of_group, capacity = problem
    num_arcs = capacity.shape[0]
    grouped = max_min_fair_rates(
        demands, capacity, Incidence(arcs_of_group, num_arcs, flow_group)
    )
    # Expand to one incidence row per member flow, each repeating its
    # group's arcs: the equivalence contract is bit-for-bit, and so is the
    # agreement with the plain-Python reference.
    arcs_of_flow = [arcs_of_group[group] for group in flow_group]
    expanded = max_min_fair_rates(demands, capacity, Incidence(arcs_of_flow, num_arcs))
    assert np.array_equal(grouped, expanded)
    assert np.array_equal(
        grouped, dense_python_filling(demands, arcs_of_flow, capacity)
    )


@st.composite
def demand_sequences(draw):
    """A grouped incidence and a sequence of demand rows over its members,
    each row one move from the last: uniform scaling, one class or one flow
    set to a new value, the distinct values permuted, a subset set to
    ``0.0`` / ``-0.0``, or a fresh draw from a small pool."""
    _demands, flow_group, arcs_of_group, capacity = draw(grouped_problems())
    pool = [
        0.0,
        -0.0,
        1e6,
        3e6,
        2.5e8,
        *draw(st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False), max_size=2)),
    ]
    pooled = st.lists(
        st.sampled_from(pool), min_size=flow_group.size, max_size=flow_group.size
    )
    row = np.array(draw(pooled), dtype=float)
    rows = [row]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        move = draw(st.sampled_from(["scale", "class", "flow", "permute", "zeros", "redraw"]))
        row = row.copy()
        if move == "scale":
            row *= draw(st.sampled_from([0.5, 1.5, 2.0, 1e-3]))
        elif move == "class" and row.size:
            flow = draw(st.integers(min_value=0, max_value=row.size - 1))
            same = (flow_group == flow_group[flow]) & (
                row.view(np.int64) == row.view(np.int64)[flow]
            )
            row[same] = draw(st.sampled_from(pool))
        elif move == "flow" and row.size:
            flow = draw(st.integers(min_value=0, max_value=row.size - 1))
            row[flow] = draw(st.sampled_from(pool))
        elif move == "permute":
            distinct = np.unique(row.view(np.int64))
            image = np.array(draw(st.permutations(distinct.tolist())), dtype=np.int64)
            row = image[np.searchsorted(distinct, row.view(np.int64))].view(float)
        elif move == "zeros" and row.size:
            subset = np.array(draw(st.lists(st.booleans(), min_size=row.size, max_size=row.size)))
            row[subset] = np.where(draw(st.booleans()), 0.0, -0.0)
        else:
            row = np.array(draw(pooled), dtype=float)
        rows.append(row)
    return rows, flow_group, arcs_of_group, capacity


@settings(max_examples=60, deadline=None)
@given(problem=demand_sequences())
def test_kept_collapse_matches_a_fresh_incidence_at_every_step(problem):
    rows, flow_group, arcs_of_group, capacity = problem
    num_arcs = capacity.shape[0]
    kept = Incidence(arcs_of_group, num_arcs, flow_group)
    for row in rows:
        rates = max_min_fair_rates(row, capacity, kept)
        fresh = max_min_fair_rates(row, capacity, Incidence(arcs_of_group, num_arcs, flow_group))
        assert rates.tobytes() == fresh.tobytes()


@st.composite
def shared_path_populations(draw):
    """A topology, a few routed paths and several member flows per path."""
    topology = draw(small_topologies())
    nodes = topology.nodes()
    num_paths = draw(st.integers(min_value=1, max_value=4))
    paths = []
    for _ in range(num_paths):
        origin = draw(st.sampled_from(nodes))
        destination = draw(st.sampled_from([name for name in nodes if name != origin]))
        paths.append(Path.of(topology.shortest_path(origin, destination)))
    demand = st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=2e9, allow_nan=False)
    )
    members = [
        (group, draw(demand))
        for group in range(num_paths)
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    fail_first_hop = draw(st.booleans())
    return topology, paths, members, fail_first_hop


@settings(max_examples=60, deadline=None)
@given(population=shared_path_populations())
def test_allocate_aggregated_matches_dict_oracle(population):
    """The grouped entry point against the seed algorithm, not another array loop."""
    topology, paths, members, fail_first_hop = population
    network = SimulatedNetwork(topology, MODEL)
    if fail_first_hop:
        network.fail_link(*paths[0].link_keys()[0])
    table = AggregatedFlows.from_arrays(
        paths, [group for group, _ in members], [demand for _, demand in members]
    )
    flows = [
        Flow(
            f"f{index}",
            paths[group].origin,
            paths[group].destination,
            constant_demand(demand),
            path=paths[group],
        )
        for index, (group, demand) in enumerate(members)
    ]
    expected_rates, _ = reference_max_min_rates(network, flows, now_s=0.0)
    aggregated = allocate_aggregated(network, table)
    assert aggregated.shape == (len(members),)
    for index, flow in enumerate(flows):
        assert aggregated[index] == pytest.approx(
            expected_rates[flow.flow_id], rel=1e-9, abs=1e-6
        )
    if fail_first_hop:
        assert all(
            rate == 0.0
            for rate, (group, _) in zip(aggregated, members, strict=True)
            if group == 0
        )


# --------------------------------------------------------------------- #
# Demand classes: collapsed == one row per flow == dict oracle, on the bytes
# --------------------------------------------------------------------- #
@st.composite
def clustered_populations(draw):
    """Member flows whose demands come from a small shared pool.

    The strategies above draw near-unique floats, so every (group, demand)
    class would hold one flow; a pool gives classes several members.  Group
    0 always holds ``0.0`` and ``-0.0`` side by side (and is the group
    routed over the failed link); every other group is empty, drawn from
    the pool, or all-distinct.  Unrouted flows and a negative demand ride
    along, and the flow order is shuffled so classes are not contiguous.
    """
    topology, paths, _members, fail_first_hop = draw(shared_path_populations())
    pool = [0.0, -0.0, -1e6] + draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2e9, allow_nan=False),
            min_size=1,
            max_size=3,
        )
    )
    pooled = st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    distinct = st.lists(
        st.floats(min_value=1.0, max_value=2e9, allow_nan=False),
        min_size=1,
        max_size=4,
        unique=True,
    )
    members = [(0, 0.0), (0, -0.0)] + [(0, demand) for demand in draw(pooled)]
    for group in range(1, len(paths)):
        demands = draw(st.one_of(st.just([]), pooled, distinct))
        members += [(group, demand) for demand in demands]
    members += [
        (UNROUTED_GROUP, demand)
        for demand in draw(st.lists(st.sampled_from(pool), max_size=3))
    ]
    return topology, paths, draw(st.permutations(members)), fail_first_hop


def class_count(groups, demands):
    """Distinct (group, demand bit pattern) pairs."""
    return len(
        {
            (int(group), np.float64(demand).tobytes())
            for group, demand in zip(groups, demands, strict=True)
        }
    )


@settings(max_examples=60, deadline=None)
@given(population=clustered_populations())
def test_demand_classes_match_one_row_per_flow_and_dict_oracle(population):
    topology, paths, members, fail_first_hop = population
    network = SimulatedNetwork(topology, MODEL)
    if fail_first_hop:
        network.fail_link(*paths[0].link_keys()[0])
    groups = np.array([group for group, _ in members], dtype=np.int64)
    demands = np.array([demand for _, demand in members])
    table = AggregatedFlows.from_arrays(paths, groups, demands)
    with trace.collect(trace.SpanCollector()):
        collapsed = allocate_aggregated(network, table)

    routable = np.flatnonzero(
        [
            group != UNROUTED_GROUP and network.path_is_usable(paths[group])
            for group in groups
        ]
    )
    assert fail_first_hop or routable.size >= 2
    if routable.size:
        # Traced counts are member-weighted: every routable flow freezes
        # exactly once, however few classes carried them.
        stats = last_kernel_stats()
        assert sum(stats["frozen_per_iteration"]) == routable.size
        assert stats["classes"] == class_count(groups[routable], demands[routable])

    # One incidence row per flow: the unit-weight path, no collapse at all.
    index = topology.index()
    expanded = np.zeros(len(members))
    expanded[routable] = max_min_fair_rates(
        demands[routable],
        network.alloc_capacity,
        Incidence(
            [index.compile_path(paths[groups[flow]]).arc_indices for flow in routable],
            index.num_arcs,
        ),
    )
    assert collapsed.tobytes() == expanded.tobytes()

    # The seed algorithm.  ``Flow.offered_load`` clamps negative demands to
    # zero, which the filling treats alike: both freeze on a zero step.
    flows = [
        Flow(
            f"f{index}",
            paths[max(group, 0)].origin,
            paths[max(group, 0)].destination,
            constant_demand(demand),
            path=None if group == UNROUTED_GROUP else paths[group],
        )
        for index, (group, demand) in enumerate(members)
    ]
    expected, _ = reference_max_min_rates(network, flows, now_s=0.0)
    oracle = np.array([expected[flow.flow_id] for flow in flows])
    assert collapsed.tobytes() == oracle.tobytes()


_CLUSTERED_SCRIPT = """
import hashlib, random
import numpy as np
from repro.routing import Path
from repro.simulator import AggregatedFlows, SimulatedNetwork, allocate_aggregated
from repro.topology.fattree import build_fattree, hosts

topology = build_fattree(4)
endpoints = hosts(topology)
rng = random.Random(5)
paths = [
    Path.of(topology.shortest_path(*rng.sample(endpoints, 2))) for _ in range(12)
]
pool = [0.0, -0.0, 2e8, 5e8, 9e8]
groups = [rng.randrange(-1, len(paths)) for _ in range(200)]
demands = [rng.choice(pool) for _ in groups]
network = SimulatedNetwork(topology)
network.fail_link(*paths[0].link_keys()[1])
rates = allocate_aggregated(network, AggregatedFlows.from_arrays(paths, groups, demands))
assert rates.max() > 0.0
print(hashlib.sha256(rates.tobytes()).hexdigest())
"""


def test_demand_classes_do_not_follow_the_hash_seed(run_under_hash_seeds):
    for output in run_under_hash_seeds(["-c", _CLUSTERED_SCRIPT]):
        # The digest the per-flow loop (before demand classes) printed.
        assert output.strip() == (
            "3f0472f260c6957415a45c2a2a81cf027a1e52c7fe2184dc41f5ed9a2b5f41d6"
        )


# --------------------------------------------------------------------- #
# Traffic aggregation: volume conservation and determinism
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=12),
)
def test_aggregate_matrix_conserves_volume(seed, num_pairs):
    import random as random_module

    from repro.topology.fattree import build_fattree
    from repro.topology.fattree import hosts as fattree_hosts
    from repro.traffic import aggregate_matrix, aggregation_map

    topology = build_fattree(4)
    endpoints = fattree_hosts(topology)
    rng = random_module.Random(seed)
    demands = {}
    for _ in range(num_pairs):
        origin, destination = rng.sample(endpoints, 2)
        demands[(origin, destination)] = demands.get(
            (origin, destination), 0.0
        ) + rng.uniform(0.0, 1e8)
    matrix = TrafficMatrix(demands, name="hosts")
    aggregated = aggregate_matrix(topology, matrix, "aggregation")
    # Aggregation moves volume between endpoints but never creates or
    # destroys it, and it can only shrink the pair count.
    assert aggregated.total_bps == pytest.approx(matrix.total_bps, rel=1e-12)
    assert len(aggregated) <= len(matrix)
    assert aggregated.name == "hosts@aggregation"
    # Every aggregated endpoint is either an aggregation switch or an
    # original host kept because both ends share an ancestor.
    ancestors = aggregation_map(topology, endpoints, "aggregation")
    for origin, destination in aggregated.pairs():
        assert origin in ancestors.values() or origin in endpoints
        assert destination in ancestors.values() or destination in endpoints
    # Deterministic: re-aggregating yields the same demands bit for bit.
    again = aggregate_matrix(topology, matrix, "aggregation")
    assert dict(again.items()) == dict(aggregated.items())


# --------------------------------------------------------------------- #
# Workload-generator invariants
# --------------------------------------------------------------------- #
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=50))
def test_sine_fraction_bounded(index, period):
    value = sine_fraction(index, period)
    assert 0.0 <= value <= 1.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_google_series_positive_for_any_seed(seed):
    series = google_volume_series(num_days=1, seed=seed)
    assert (series > 0).all()
    changes = relative_changes(series)
    assert (changes >= 0).all()
