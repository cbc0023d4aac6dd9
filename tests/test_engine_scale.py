"""Tests for the million-flow scale axis: flow aggregation, the pinned
engine-scale checksums, calibration memoisation and the compiled flow-set
cache."""

import hashlib
import os
import random
import sys

import numpy as np
import pytest

from repro.exceptions import TrafficError
from repro.obs import metrics
from repro.routing import Path
from repro.simulator import (
    AggregatedFlows,
    Flow,
    LinkState,
    SimulatedNetwork,
    allocate_aggregated,
    constant_demand,
)
from repro.simulator.aggregate import UNROUTED_GROUP
from repro.simulator.fairness import Incidence, last_kernel_stats
from repro.topology.fattree import (
    aggregation_switch_name,
    build_fattree,
    core_switch_name,
    edge_switch_name,
    host_name,
    hosts,
)
from repro.traffic import (
    TrafficMatrix,
    calibrate_max_load,
    calibration_cache_stats,
    clear_calibration_cache,
)
from repro.units import mbps

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks", "harness"))

from workloads import (  # noqa: E402
    ENGINE_CYCLE,
    ENGINE_SHAPE,
    aggregation_core_link,
    build_engine_population,
    engine_inputs,
)


def fattree_flows(k=4, num_flows=40, seed=3):
    """Deterministic host-to-host flows on a fat-tree."""
    topology = build_fattree(k)
    endpoints = hosts(topology)
    rng = random.Random(seed)
    flows = []
    for index in range(num_flows):
        origin, destination = rng.sample(endpoints, 2)
        path = Path.of(topology.shortest_path(origin, destination))
        flows.append(
            Flow(
                f"f{index}",
                origin,
                destination,
                constant_demand(rng.uniform(mbps(1), mbps(800))),
                path=path,
            )
        )
    return topology, flows


def aggregate(flows):
    """*flows* as a table: one group per distinct path, in first-seen order."""
    paths = list(dict.fromkeys(flow.path for flow in flows))
    return AggregatedFlows.from_arrays(
        paths,
        [paths.index(flow.path) for flow in flows],
        [flow.offered_load(0.0) for flow in flows],
    )


# --------------------------------------------------------------------- #
# Flow aggregation: exact equivalence with the per-flow engine
# --------------------------------------------------------------------- #


def test_allocate_aggregated_matches_per_flow_allocation():
    topology, flows = fattree_flows(num_flows=60)
    network = SimulatedNetwork(topology)
    network.allocate_rates(flows, now_s=0.0)
    per_flow = np.array([flow.rate_bps for flow in flows])

    table = aggregate(flows)
    assert table.num_groups < table.num_flows  # shared paths actually group
    aggregated = allocate_aggregated(SimulatedNetwork(build_fattree(4)), table)
    assert np.array_equal(per_flow, aggregated)


def test_allocate_aggregated_group_sums_match_summed_per_flow_rates():
    # Aggregate-then-allocate == allocate-then-sum: the per-group totals of
    # the aggregated allocation equal the summed per-flow rates.
    topology, flows = fattree_flows(num_flows=60)
    network = SimulatedNetwork(topology)
    network.allocate_rates(flows, now_s=0.0)
    table = aggregate(flows)
    aggregated = allocate_aggregated(SimulatedNetwork(build_fattree(4)), table)
    per_flow_sums = np.zeros(table.num_groups)
    aggregated_sums = np.zeros(table.num_groups)
    for index, flow in enumerate(flows):
        per_flow_sums[table.flow_group[index]] += flow.rate_bps
        aggregated_sums[table.flow_group[index]] += aggregated[index]
    assert np.array_equal(per_flow_sums, aggregated_sums)


def test_allocate_aggregated_tracks_link_state():
    topology, flows = fattree_flows(num_flows=40)
    network = SimulatedNetwork(topology)
    table = aggregate(flows)
    # Sleep everything except the arcs the flows actually use, then kill
    # one used link: flows over it get zero, the rest stay max-min fair.
    used = {arc for flow in flows for arc in flow.path.link_keys()}
    victim = sorted(used)[0]
    network.fail_link(*victim)
    network.allocate_rates(flows, now_s=0.0)
    per_flow = np.array([flow.rate_bps for flow in flows])
    aggregated = allocate_aggregated(network, table)
    assert np.array_equal(per_flow, aggregated)
    crossing = [
        index
        for index, flow in enumerate(flows)
        if victim in set(flow.path.link_keys())
    ]
    assert crossing and all(aggregated[index] == 0.0 for index in crossing)


def test_aggregated_flows_validation():
    from repro.exceptions import SimulationError

    path = Path.of(["a", "b"])
    with pytest.raises(SimulationError):
        AggregatedFlows.from_arrays(
            (path,), np.array([1], dtype=np.int64), np.array([mbps(1)])
        )
    with pytest.raises(SimulationError):
        AggregatedFlows.from_arrays(
            (path,), np.array([0, 0], dtype=np.int64), np.array([mbps(1)])
        )
    # UNROUTED_GROUP (-1) is the only negative id: -2 would index the
    # routable-group remap from the end and ride the last group's path.
    with pytest.raises(SimulationError):
        AggregatedFlows.from_arrays(
            (path, path), [0, -2, -1], [mbps(1), mbps(2), mbps(3)]
        )
    unrouted = AggregatedFlows.from_arrays((path,), [0, -1], [mbps(1), mbps(3)])
    assert unrouted.num_flows == 2
    # Group ids are whole numbers: 0.9 is not group 0.
    for groups in ([0.9, 0.2], [0.0, float("nan")], [0.0, float("inf")], [True, False]):
        with pytest.raises(SimulationError, match="integer group ids"):
            AggregatedFlows.from_arrays((path, path), groups, [mbps(1), mbps(2)])
    whole = AggregatedFlows.from_arrays((path, path), [1.0, 0.0], [mbps(1), mbps(2)])
    assert whole.flow_group.tolist() == [1, 0]
    assert whole.flow_group.dtype == np.int64


def test_table_membership_cannot_be_edited_in_place():
    """The network caches a table's compiled flow set under the table's
    identity, so its membership is read-only; its demands are read afresh
    on every call and may stay shared."""
    topology = build_fattree(4)
    paths = [
        Path.of([host_name(0, 0, 0), edge_switch_name(0, 0)]),
        Path.of([host_name(1, 0, 0), edge_switch_name(1, 0)]),
    ]
    groups = np.array([0, 0, 1], dtype=np.int64)
    demands = np.full(3, 6e8)
    table = AggregatedFlows.from_arrays(paths, groups, demands)
    network = SimulatedNetwork(topology)
    assert allocate_aggregated(network, table).tolist() == [5e8, 5e8, 6e8]

    with pytest.raises(ValueError, match="read-only"):
        table.flow_group[:] = [0, 1, 1]
    groups[:] = [0, 1, 1]  # the caller's array is not the table's
    assert table.flow_group.tolist() == [0, 0, 1]
    assert allocate_aggregated(network, table).tolist() == [5e8, 5e8, 6e8]
    regrouped = AggregatedFlows.from_arrays(paths, groups, demands)
    assert allocate_aggregated(network, regrouped).tolist() == [6e8, 5e8, 5e8]
    # A table built directly takes its own read-only copy too.
    direct = AggregatedFlows(tuple(paths), groups, demands)
    assert not direct.flow_group.flags.writeable
    assert direct.flow_group is not groups

    demands[2] = 2e8  # shared demands: the next call reads the edit
    assert allocate_aggregated(network, table).tolist() == [5e8, 5e8, 2e8]


# --------------------------------------------------------------------- #
# Pre-refactor witness: the engine-scale checksums
# --------------------------------------------------------------------- #

#: Four shared demand values (bps): flows with equal demand freeze in the
#: same kernel iteration, so the filling depth tracks saturating arcs plus
#: values instead of the number of flows.
DEMAND_CLASSES = (0.5e6, 2e6, 8e6, 32e6)


def build_point(k, pairs, members, seed=7):
    """Deterministic flow population of one engine-scale grid point.

    Paths are written from the fat-tree naming scheme directly
    (host -> edge -> aggregation -> core -> aggregation -> edge -> host)
    instead of searched per pair.  Returns ``(topology, paths, flow_group,
    demands_bps)``; the rate checksums below were committed by the retired
    ``benchmarks/bench_engine_scale.py`` sweep over these populations.
    """
    half = k // 2
    topology = build_fattree(k)
    rng = random.Random(seed)

    def rand_host():
        return (rng.randrange(k), rng.randrange(half), rng.randrange(half))

    def path_between(a, b):
        (p1, e1, h1), (p2, e2, h2) = a, b
        hops = [host_name(p1, e1, h1), edge_switch_name(p1, e1)]
        if (p1, e1) != (p2, e2):
            agg = rng.randrange(half)
            hops.append(aggregation_switch_name(p1, agg))
            if p1 != p2:
                hops.append(core_switch_name(agg * half + rng.randrange(half)))
                hops.append(aggregation_switch_name(p2, agg))
            hops.append(edge_switch_name(p2, e2))
        hops.append(host_name(p2, e2, h2))
        return Path.of(hops)

    paths = []
    for _ in range(pairs):
        a, b = rand_host(), rand_host()
        while b == a:
            b = rand_host()
        paths.append(path_between(a, b))
    flow_group = np.repeat(np.arange(pairs, dtype=np.int64), members)
    classes = np.asarray(DEMAND_CLASSES, dtype=np.float64)
    demands = classes[np.arange(pairs * members) % len(classes)]
    return topology, paths, flow_group, demands


@pytest.mark.parametrize(
    "k, pairs, members, committed, per_flow_too",
    [
        pytest.param(
            8,
            128,
            16,
            "944040afce0b7c92bf2222fd9c8261c5b367963f9dc0bee4410804b4fa302145",
            True,
            id="k8-2048-flows",
        ),
        pytest.param(
            16,
            1280,
            16,
            "8a2b012373dd89be0c4745f85e949c08cf228c78dcca0658a4c2ff40146675a0",
            True,
            id="k16-20480-flows",
        ),
        # The harness shape, aggregated entry only (204 800 Flow objects
        # would cost more than the rest of this file).
        pytest.param(
            16,
            1280,
            160,
            "9f177a19217abf2217721a5b827956e7ee785211556396d6da30c8c3c8794a37",
            False,
            id="k16-204800-flows",
        ),
    ],
)
def test_engine_scale_checksums_match_committed_baseline(
    k, pairs, members, committed, per_flow_too
):
    """Both entry points reproduce the rate checksums the sweep committed."""
    topology, paths, flow_group, demands = build_point(k, pairs, members)
    network = SimulatedNetwork(topology)
    table = AggregatedFlows.from_arrays(paths, flow_group, demands)
    aggregated = allocate_aggregated(network, table)
    assert hashlib.sha256(aggregated.tobytes()).hexdigest() == committed
    if not per_flow_too:
        # The loop's state is one entry per (group, demand) pair, not per
        # flow: 1 280 groups x 4 demand values.
        stats = last_kernel_stats()
        assert stats["classes"] == 5120
        assert stats["iterations"] == 117
        return

    flows = [
        Flow(
            f"f{index}",
            paths[group].origin,
            paths[group].destination,
            constant_demand(float(demands[index])),
            path=paths[group],
        )
        for index, group in enumerate(flow_group)
    ]
    network.allocate_rates(flows, now_s=0.0)
    per_flow = np.array([flow.rate_bps for flow in flows])
    assert hashlib.sha256(per_flow.tobytes()).hexdigest() == committed


def test_harness_population_iterations_per_slot():
    """The ``engine_step`` cycle at seed 11: filling depth and classes per
    slot, with the aggregation-core link failed in slots 4-7."""
    inputs = engine_inputs(11)
    topology, paths, flow_group, base = build_engine_population(
        *ENGINE_SHAPE, inputs["classes_bps"]
    )
    network = SimulatedNetwork(topology)
    table = AggregatedFlows.from_arrays(paths, flow_group, base)
    collapses = metrics.counter("repro_fairness_collapses_total")
    before = {kind: collapses.labels(collapse=kind).value for kind in ("full", "reused")}
    iterations, classes, kinds = [], [], []
    for slot, level in enumerate(inputs["levels"]):
        if slot == ENGINE_CYCLE // 2:
            network.fail_link(*aggregation_core_link(paths))
        allocate_aggregated(network, table, demands_bps=base * level)
        stats = last_kernel_stats()
        iterations.append(stats["iterations"])
        classes.append(stats["classes"])
        kinds.append(stats["collapse"])
    assert iterations == [119, 118, 117, 118, 114, 115, 113, 115]
    assert classes == [5120] * 4 + [5100] * 4
    # The levels scale every demand alike, so only a link-state change (a
    # new compiled entry, a new incidence) pays for a collapse.
    assert kinds == (["full"] + ["reused"] * 3) * 2
    after = {kind: collapses.labels(collapse=kind).value for kind in ("full", "reused")}
    assert {kind: after[kind] - before[kind] for kind in after} == {"full": 2, "reused": 6}


# --------------------------------------------------------------------- #
# Calibration memoisation
# --------------------------------------------------------------------- #


def triangle_topology():
    from repro.topology.base import Topology

    topo = Topology(name="triangle")
    for name in ("a", "b", "c"):
        topo.add_node(name, kind="router")
    topo.add_link("a", "b", capacity_bps=mbps(100))
    topo.add_link("b", "c", capacity_bps=mbps(100))
    topo.add_link("a", "c", capacity_bps=mbps(100))
    return topo


def test_calibration_memo_hit_is_bit_identical():
    clear_calibration_cache()
    topology = triangle_topology()
    matrix = TrafficMatrix({("a", "c"): mbps(10), ("b", "c"): mbps(5)})
    first = calibrate_max_load(topology, matrix)
    stats = calibration_cache_stats()
    assert stats == {"hits": 0, "misses": 1}
    second = calibrate_max_load(topology, matrix)
    assert second == first  # bit-identical, it is the same float object
    assert calibration_cache_stats() == {"hits": 1, "misses": 1}
    # A different matrix is a different key, not a stale hit.
    calibrate_max_load(topology, matrix.scaled(0.5))
    assert calibration_cache_stats() == {"hits": 1, "misses": 2}


def test_calibration_memo_matches_uncached_recomputation():
    clear_calibration_cache()
    topology = triangle_topology()
    matrix = TrafficMatrix({("a", "c"): mbps(10), ("b", "c"): mbps(5)})
    cached = calibrate_max_load(topology, matrix)
    clear_calibration_cache()
    recomputed = calibrate_max_load(topology, matrix)
    assert cached == recomputed


def test_calibration_custom_oracle_never_cached():
    clear_calibration_cache()
    topology = triangle_topology()
    matrix = TrafficMatrix({("a", "c"): mbps(10)})
    calls = []

    def oracle(topo, demands):
        calls.append(demands.total_bps)
        return demands.total_bps <= mbps(50)

    first = calibrate_max_load(topology, matrix, oracle=oracle)
    count = len(calls)
    second = calibrate_max_load(topology, matrix, oracle=oracle)
    assert len(calls) == 2 * count  # re-evaluated, not served from the memo
    assert first == second
    assert calibration_cache_stats() == {"hits": 0, "misses": 0}
    with pytest.raises(TrafficError):
        calibrate_max_load(topology, TrafficMatrix({}))


# --------------------------------------------------------------------- #
# Compiled flow-set cache (allocate_rates regression)
# --------------------------------------------------------------------- #


def test_allocate_rates_reuses_compiled_flow_set(monkeypatch):
    topology, flows = fattree_flows(num_flows=20)
    network = SimulatedNetwork(topology)
    usable_calls = []
    compile_calls = []
    original_usable = network.link_usable_vector
    original_compile = network.topology.index().compile_path

    def counting_usable():
        usable_calls.append(1)
        return original_usable()

    def counting_compile(path):
        compile_calls.append(1)
        return original_compile(path)

    monkeypatch.setattr(network, "link_usable_vector", counting_usable)
    monkeypatch.setattr(network.topology.index(), "compile_path", counting_compile)

    network.allocate_rates(flows, now_s=0.0)
    baseline_usable = len(usable_calls)
    baseline_compile = len(compile_calls)
    assert baseline_usable >= 1 and baseline_compile >= 1

    # Same flows, same link state: the compiled set is reused untouched.
    network.allocate_rates(flows, now_s=10.0)
    assert len(usable_calls) == baseline_usable
    assert len(compile_calls) == baseline_compile


def test_compiled_flow_set_invalidated_on_link_state_change():
    topology, flows = fattree_flows(num_flows=20)
    network = SimulatedNetwork(topology)
    network.allocate_rates(flows, now_s=0.0)
    before = np.array([flow.rate_bps for flow in flows])
    victim = sorted({arc for flow in flows for arc in flow.path.link_keys()})[0]
    network.fail_link(*victim)
    network.allocate_rates(flows, now_s=0.0)
    after = np.array([flow.rate_bps for flow in flows])
    assert not np.array_equal(before, after)
    crossing = [
        index
        for index, flow in enumerate(flows)
        if victim in set(flow.path.link_keys())
    ]
    assert crossing and all(after[index] == 0.0 for index in crossing)
    # Repairing restores the original allocation bit for bit.
    network.repair_link(*victim)
    network.allocate_rates(flows, now_s=0.0)
    assert np.array_equal(
        before, np.array([flow.rate_bps for flow in flows])
    )


def test_compiled_flow_set_invalidated_on_path_reassignment():
    topology, flows = fattree_flows(num_flows=10)
    network = SimulatedNetwork(topology)
    network.allocate_rates(flows, now_s=0.0)
    moved = flows[0]
    detour = Path.of(topology.shortest_path(moved.origin, moved.destination))
    moved.path = detour  # a fresh Path object: the cache key must change
    network.allocate_rates(flows, now_s=0.0)
    # The rewritten path is what the arc loads reflect now.
    loads = sum(
        network.arc_load(src, dst) for (src, dst) in detour.arc_keys()
    )
    assert loads > 0.0


def fresh_rates(network, table):
    """*table*'s rates on a new network driven into *network*'s link states."""
    fresh = SimulatedNetwork(network.topology)
    codes = network.link_state_codes()
    fresh.sleep_idle_links(codes == LinkState.ACTIVE)
    fresh.request_wake(np.flatnonzero(codes == LinkState.WAKING), now_s=0.0)
    for link in np.flatnonzero(codes == LinkState.FAILED):
        fresh.fail_link(*network.topology.index().link_keys[link])
    assert np.array_equal(fresh.link_state_codes(), codes)
    return allocate_aggregated(fresh, table)


def test_compiled_flow_set_cannot_go_stale_across_entry_points():
    topology, flows = fattree_flows(num_flows=40)
    network = SimulatedNetwork(topology)
    table = aggregate(flows)
    victim = sorted({arc for flow in flows for arc in flow.path.link_keys()})[0]
    healthy = allocate_aggregated(network, table)
    assert np.array_equal(healthy, fresh_rates(network, table))

    # Every way a link can change state is seen by the next call.
    position = topology.index().link_index[victim]
    keep_others = np.arange(len(topology.link_keys())) != position
    moves = [
        (lambda: network.fail_link(*victim), False),
        (lambda: network.repair_link(*victim), True),
        (lambda: network.sleep_idle_links(keep_others), False),
        (lambda: network.request_wake(np.array([position]), now_s=1.0), False),
        (lambda: network.advance(1.0 + network.wake_delay_s), True),
        (lambda: network.sleep_idle_links(keep_others), False),
        (lambda: network.request_wake(np.array([position]), now_s=2.0), False),
        (lambda: network.fail_link(*victim), False),
        (lambda: network.repair_link(*victim), True),
    ]
    for move, usable in moves:
        move()
        rates = allocate_aggregated(network, table)
        assert np.array_equal(rates, fresh_rates(network, table))
        assert np.array_equal(rates, healthy) == usable

    # Same paths, other membership: the key is the table, not its paths.
    regrouped = AggregatedFlows.from_arrays(
        table.paths, table.flow_group[::-1].copy(), table.demands_bps
    )
    assert not np.array_equal(table.flow_group, regrouped.flow_group)
    assert np.array_equal(
        allocate_aggregated(network, regrouped),
        fresh_rates(network, regrouped),
    )

    # The two entry points share the network's one entry and evict each other.
    network.fail_link(*victim)
    for _ in range(2):
        network.allocate_rates(flows, now_s=0.0)
        per_flow = np.array([flow.rate_bps for flow in flows])
        aggregated = allocate_aggregated(network, table)
        assert np.array_equal(per_flow, aggregated)
        assert np.array_equal(aggregated, fresh_rates(network, table))


def test_compiled_flow_set_hits_and_misses_over_a_fail_repair_cycle():
    topology, flows = fattree_flows(num_flows=40)
    network = SimulatedNetwork(topology)
    table = aggregate(flows)
    victim = flows[0].path.link_keys()[0]
    allocate_aggregated(network, table)  # the warm-up pays the first build
    hits = metrics.counter("repro_flowset_cache_hits_total")
    misses = metrics.counter("repro_flowset_cache_misses_total")
    hits_before, misses_before = hits.value, misses.value
    # The harness cycle: eight steps, the link failed for the second half
    # and repaired before the next cycle's first step.
    network.fail_link(*victim)
    for _ in range(4):
        allocate_aggregated(network, table)
    network.repair_link(*victim)
    for _ in range(4):
        allocate_aggregated(network, table, demands_bps=table.demands_bps * 1.5)
    assert hits.value - hits_before == 6
    assert misses.value - misses_before == 2


# --------------------------------------------------------------------- #
# Re-filtering lowered paths on a link-state change
# --------------------------------------------------------------------- #


def per_path_filter(network, paths, flow_group=None):
    """The routable indices and incidence walked path by path: the
    reference for the re-filter over the lowered hops."""
    index = network.topology.index()
    usable = network.link_usable_vector()
    kept, arcs_of_row = [], []
    for position, path in enumerate(paths):
        if path is None:
            continue
        compiled = index.compile_path(path)
        if compiled.link_indices.size == 0 or bool(usable[compiled.link_indices].all()):
            kept.append(position)
            arcs_of_row.append(compiled.arc_indices)
    routable, row_of_flow = np.array(kept, dtype=np.int64), None
    if flow_group is not None:
        row_of_path = np.full(len(paths) + 1, -1, dtype=np.int64)
        row_of_path[kept] = np.arange(len(kept))
        row_of_flow = row_of_path[flow_group]
        routable = np.flatnonzero(row_of_flow >= 0)
        row_of_flow = row_of_flow[routable]
    return routable, Incidence(arcs_of_row, index.num_arcs, row_of_flow)


def assert_same_filtering(entry, reference):
    routable, incidence = reference
    assert np.array_equal(entry.routable_indices, routable)
    for name in ("group_arc", "arc_group"):
        mine, theirs = getattr(entry.incidence, name), getattr(incidence, name)
        assert mine.shape == theirs.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mine, part), getattr(theirs, part)), (name, part)
    if incidence.flow_group is None:
        assert entry.incidence.flow_group is None
    else:
        assert np.array_equal(entry.incidence.flow_group, incidence.flow_group)


def link_state_moves(network, paths):
    """Fail, sleep and wake links the paths use, then make every link unusable."""
    topology = network.topology
    used = sorted({key for path in paths if path is not None for key in path.link_keys()})
    sleeper = topology.index().link_index[used[1]]
    links = np.arange(len(topology.link_keys()))
    return [
        ("failed", lambda: network.fail_link(*used[0])),
        ("sleeping", lambda: network.sleep_idle_links(links != sleeper)),
        ("waking", lambda: network.request_wake(np.array([sleeper]), now_s=0.0)),
        ("repaired", lambda: network.repair_link(*used[0])),
        ("awake", lambda: network.advance(network.wake_delay_s)),
        ("none usable", lambda: network.sleep_idle_links(links < 0)),
    ]


def test_refilter_matches_the_per_path_walk_for_per_flow_entries(monkeypatch):
    topology, flows = fattree_flows(num_flows=30)
    endpoint = flows[0].origin
    # Unassigned flows (None) and a zero-hop path ride along.
    paths = [*(flow.path for flow in flows), None, Path.of([endpoint]), None]
    network = SimulatedNetwork(topology)
    assert_same_filtering(network.compiled_flow_set(paths), per_path_filter(network, paths))
    compiled = []
    original = topology.index().compile_path
    monkeypatch.setattr(
        topology.index(), "compile_path", lambda path: compiled.append(path) or original(path)
    )
    for name, move in link_state_moves(network, paths):
        move()
        entry = network.compiled_flow_set(paths)
        # Lowered once by the first build: a state change compiles nothing.
        assert not compiled
        assert_same_filtering(entry, per_path_filter(network, paths))
        compiled.clear()  # the reference walk compiles every path
        if name == "none usable":
            # Only the zero-hop path still routes.
            assert entry.routable_indices.tolist() == [len(flows) + 1]


def test_refilter_matches_the_per_path_walk_for_aggregated_tables():
    topology, flows = fattree_flows(num_flows=40)
    table = aggregate(flows)
    endpoint = flows[0].origin
    paths = [*table.paths, Path.of([endpoint])]
    groups = np.concatenate([table.flow_group, [len(paths) - 1, UNROUTED_GROUP, 0]])
    demands = np.concatenate([table.demands_bps, [mbps(5), mbps(5), mbps(5)]])
    table = AggregatedFlows.from_arrays(paths, groups, demands)
    network = SimulatedNetwork(topology)
    for _name, move in [("healthy", lambda: None), *link_state_moves(network, paths)]:
        move()
        entry = network.compiled_flow_set(table.paths, table.flow_group, owner=table)
        assert_same_filtering(entry, per_path_filter(network, table.paths, table.flow_group))
        assert np.array_equal(allocate_aggregated(network, table), fresh_rates(network, table))
