"""Tests for the million-flow scale axis: flow aggregation, the committed
engine-scale checksums, calibration memoisation and the compiled flow-set
cache."""

import hashlib
import json
import sys
from pathlib import Path as FilePath

import numpy as np
import pytest

from repro.exceptions import TrafficError
from repro.routing import Path
from repro.simulator import (
    AggregatedFlows,
    Flow,
    SimulatedNetwork,
    allocate_aggregated,
    constant_demand,
)
from repro.topology.fattree import build_fattree, hosts
from repro.traffic import (
    TrafficMatrix,
    calibrate_max_load,
    calibration_cache_stats,
    clear_calibration_cache,
)
from repro.units import mbps


BENCHMARKS_DIR = FilePath(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS_DIR))


def fattree_flows(k=4, num_flows=40, seed=3):
    """Deterministic host-to-host flows on a fat-tree."""
    import random

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


# --------------------------------------------------------------------- #
# Flow aggregation: exact equivalence with the per-flow engine
# --------------------------------------------------------------------- #


def test_allocate_aggregated_matches_per_flow_allocation():
    topology, flows = fattree_flows(num_flows=60)
    network = SimulatedNetwork(topology)
    network.allocate_rates(flows, now_s=0.0)
    per_flow = np.array([flow.rate_bps for flow in flows])

    table = AggregatedFlows.from_flows(flows, now_s=0.0)
    assert table.num_groups < table.num_flows  # shared paths actually group
    aggregated = allocate_aggregated(SimulatedNetwork(build_fattree(4)), table)
    assert np.array_equal(per_flow, aggregated)


def test_allocate_aggregated_group_sums_match_summed_per_flow_rates():
    # Aggregate-then-allocate == allocate-then-sum: the per-group totals of
    # the aggregated allocation equal the summed per-flow rates.
    topology, flows = fattree_flows(num_flows=60)
    network = SimulatedNetwork(topology)
    network.allocate_rates(flows, now_s=0.0)
    table = AggregatedFlows.from_flows(flows, now_s=0.0)
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
    table = AggregatedFlows.from_flows(flows, now_s=0.0)
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
    assert unrouted.member_counts().tolist() == [1]


# --------------------------------------------------------------------- #
# Pre-refactor witness: the committed engine-scale checksums
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("point", [0, 1], ids=["k8-2048-flows", "k16-20480-flows"])
def test_engine_scale_checksums_match_committed_baseline(point):
    """Both entry points reproduce the rate checksums in BENCH_engine_scale.json."""
    import bench_engine_scale

    baseline = json.loads((BENCHMARKS_DIR / "BENCH_engine_scale.json").read_text())
    committed = baseline["points"][point]["dense"]["checksum"]
    assert committed == baseline["points"][point]["sparse"]["checksum"]

    k, pairs, members = bench_engine_scale.GRID[point]
    topology, paths, flow_group, demands = bench_engine_scale.build_point(k, pairs, members)
    network = SimulatedNetwork(topology)
    table = AggregatedFlows.from_arrays(paths, flow_group, demands)
    aggregated = allocate_aggregated(network, table)
    assert hashlib.sha256(aggregated.tobytes()).hexdigest() == committed

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
    original_compile = network.arc_table.compile_path

    def counting_usable():
        usable_calls.append(1)
        return original_usable()

    def counting_compile(path):
        compile_calls.append(1)
        return original_compile(path)

    monkeypatch.setattr(network, "link_usable_vector", counting_usable)
    monkeypatch.setattr(network.arc_table, "compile_path", counting_compile)

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
