"""Engine scale sweep — dense per-flow engine vs the sparse aggregated path.

The sweep tier answers one question: how far does a single timeline step
(the per-interval max-min rate allocation) scale on fat-tree datacenter
topologies, and at what memory cost?  Each grid point pins a fat-tree arity
``k`` and a flow population (``pairs`` host pairs times ``members`` flows
per pair, drawn from four shared demand classes) and measures, in a
**spawn-isolated child process** so ``ru_maxrss`` is not polluted by
earlier points:

* ``step_seconds`` — one warm rate-allocation step over the full flow set,
* ``peak_rss_mb`` — ``resource.getrusage(RUSAGE_SELF).ru_maxrss``,
* ``alloc_mb`` — the resident allocation structures (the per-flow CSR
  incidence for the dense path, the :class:`~repro.simulator.AggregatedFlows`
  table for the sparse path),
* ``checksum`` — SHA-256 of the per-flow rate vector bytes.

Two engine paths run per point: **dense** builds one
:class:`~repro.simulator.Flow` object per flow and allocates through
``SimulatedNetwork.allocate_rates``; **sparse** groups the same flows per
host pair into an ``AggregatedFlows`` table and allocates through
:func:`~repro.simulator.allocate_aggregated`.  Both run the same
progressive-filling loop, over a one-row-per-flow and a one-row-per-group
incidence respectively.  Wherever both paths run their rate checksums must
match bit-for-bit — that assertion is never relaxed.

The dense path hits its memory wall at roughly 0.8 KB per flow (one Python
``Flow`` object, id string and demand closure each), so above
``ENGINE_BENCH_DENSE_FLOW_LIMIT`` flows (default 500 000) the dense point is
**extrapolated, not measured**: an affine fit of peak RSS and step time over
the measured dense points, which under-counts the true dense cost (it
ignores the larger topology) and is therefore conservative for the ratio
gate below.  Extrapolated entries are marked ``"mode": "extrapolated"`` in
``BENCH_engine_scale.json``.

Gates at the flagship point (k=32 fat-tree, >= 10^5 flows):

* sparse peak RSS <= dense peak RSS (measured or extrapolated) / 5,
* sparse peak RSS <= an absolute ceiling (``SPARSE_RSS_CEILING_MB``).

RSS depends on the allocator and Python build, so the gates can be relaxed
with ``ENGINE_BENCH_SKIP_RSS_GATE=1``; the bit-identity assertion cannot.

Also runnable standalone (writes the baseline JSON):

    PYTHONPATH=src python benchmarks/bench_engine_scale.py

``--quick`` runs only the smallest grid point (CI smoke) without touching
the committed baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path as FilePath
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: (fat-tree k, host pairs, member flows per pair).  The flagship point
#: carries 4096 * 512 = 2 097 152 flows on a k=32 fat-tree (9472 nodes,
#: 49152 arcs) — the million-flow scale axis of the roadmap.
GRID: List[Tuple[int, int, int]] = [
    (8, 128, 16),  # 2 048 flows
    (16, 1280, 16),  # 20 480 flows
    (16, 1280, 160),  # 204 800 flows
    (32, 4096, 512),  # 2 097 152 flows
]

#: Above this many flows the dense per-flow path is extrapolated instead of
#: measured (its Flow-object memory wall).  Override to force measurement.
DENSE_FLOW_LIMIT = int(os.environ.get("ENGINE_BENCH_DENSE_FLOW_LIMIT", "500000"))

#: The flagship point must keep sparse RSS at or below dense / this factor.
RSS_RATIO_FLOOR = 5.0

#: Absolute bounded-memory claim for the sparse path at the flagship point.
SPARSE_RSS_CEILING_MB = 640.0

#: Four shared demand classes (bps).  Shared classes are what make million-
#: flow max-min filling tractable: flows with equal demand freeze in the
#: same kernel iteration, so the iteration count tracks the number of
#: saturating arcs plus classes instead of the number of distinct demands.
DEMAND_CLASSES = (0.5e6, 2e6, 8e6, 32e6)

SEED = 7

BASELINE_PATH = FilePath(__file__).parent / "BENCH_engine_scale.json"
SRC_PATH = FilePath(__file__).resolve().parent.parent / "src"


def build_point(k: int, pairs: int, members: int, seed: int = SEED):
    """Deterministic flow population for one grid point.

    Paths are constructed from the fat-tree naming scheme directly
    (host -> edge -> aggregation -> core -> aggregation -> edge -> host)
    instead of per-pair shortest-path searches, which would dominate the
    build at k=32.  Returns ``(topology, paths, flow_group, demands_bps)``.
    """
    from repro.routing import Path
    from repro.topology.fattree import (
        aggregation_switch_name,
        build_fattree,
        core_switch_name,
        edge_switch_name,
        host_name,
    )

    half = k // 2
    topology = build_fattree(k)
    rng = random.Random(seed)

    def rand_host() -> Tuple[int, int, int]:
        return (rng.randrange(k), rng.randrange(half), rng.randrange(half))

    def path_between(a, b) -> Path:
        (p1, e1, h1), (p2, e2, h2) = a, b
        src, dst = host_name(p1, e1, h1), host_name(p2, e2, h2)
        if (p1, e1) == (p2, e2):
            return Path.of([src, edge_switch_name(p1, e1), dst])
        agg = rng.randrange(half)
        if p1 == p2:
            return Path.of(
                [
                    src,
                    edge_switch_name(p1, e1),
                    aggregation_switch_name(p1, agg),
                    edge_switch_name(p2, e2),
                    dst,
                ]
            )
        core = agg * half + rng.randrange(half)
        return Path.of(
            [
                src,
                edge_switch_name(p1, e1),
                aggregation_switch_name(p1, agg),
                core_switch_name(core),
                aggregation_switch_name(p2, agg),
                edge_switch_name(p2, e2),
                dst,
            ]
        )

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


def measure_point(mode: str, k: int, pairs: int, members: int) -> Dict[str, Any]:
    """One (point, engine-path) measurement — run inside a fresh process."""
    import resource

    from repro.simulator import (
        AggregatedFlows,
        Flow,
        SimulatedNetwork,
        allocate_aggregated,
        constant_demand,
    )

    topology, paths, flow_group, demands = build_point(k, pairs, members)
    network = SimulatedNetwork(topology)

    if mode == "dense":
        flows = [
            Flow(
                f"f{index}",
                paths[group].nodes[0],
                paths[group].nodes[-1],
                constant_demand(float(demands[index])),
                path=paths[group],
            )
            for index, group in enumerate(flow_group)
        ]
        network.allocate_rates(flows, now_s=0.0)  # warm the compiled-path cache
        start = time.perf_counter()
        network.allocate_rates(flows, now_s=0.0)
        step_seconds = time.perf_counter() - start
        rates = np.array([flow.rate_bps for flow in flows])
        incidence = network._compiled_flows.incidence
        alloc_bytes = sum(
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            for matrix in (incidence.group_arc, incidence.arc_group)
        )
    elif mode == "sparse":
        table = AggregatedFlows.from_arrays(tuple(paths), flow_group, demands)
        allocate_aggregated(network, table)  # warm the usable-vector cache
        start = time.perf_counter()
        rates = allocate_aggregated(network, table)
        step_seconds = time.perf_counter() - start
        alloc_bytes = table.nbytes()
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return {
        "mode": "measured",
        "engine": mode,
        "k": k,
        "num_flows": int(pairs * members),
        "num_groups": int(pairs),
        "num_arcs": int(network._arc_table.num_arcs),
        "step_seconds": step_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "alloc_mb": alloc_bytes / 1e6,
        "checksum": hashlib.sha256(rates.tobytes()).hexdigest(),
    }


def _run_child(mode: str, k: int, pairs: int, members: int) -> Dict[str, Any]:
    """Measure one point in a freshly spawned interpreter.

    A fork would inherit the parent's resident set, so ``ru_maxrss`` of the
    child would report the parent's peak; a fresh ``sys.executable`` keeps
    every point's peak independent.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_PATH) + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, __file__, "--child", mode, str(k), str(pairs), str(members)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return json.loads(output.splitlines()[-1])


def _extrapolate_dense(
    dense_points: List[Dict[str, Any]], k: int, pairs: int, members: int, num_arcs: int
) -> Dict[str, Any]:
    """Affine fit of dense peak RSS / step time over the measured points.

    The fit uses the two largest measured dense populations and ignores the
    topology growth from their ``k`` to the target's, so it *under*-estimates
    the true dense cost — conservative for the RSS-ratio gate.
    """
    anchors = sorted(dense_points, key=lambda p: p["num_flows"])[-2:]
    low, high = anchors
    flow_span = high["num_flows"] - low["num_flows"]
    rss_slope = (high["peak_rss_mb"] - low["peak_rss_mb"]) / flow_span
    step_slope = (high["step_seconds"] - low["step_seconds"]) / flow_span
    num_flows = pairs * members
    extra = num_flows - high["num_flows"]
    return {
        "mode": "extrapolated",
        "engine": "dense",
        "k": k,
        "num_flows": int(num_flows),
        "num_groups": int(pairs),
        "num_arcs": int(num_arcs),
        "step_seconds": high["step_seconds"] + step_slope * extra,
        "peak_rss_mb": high["peak_rss_mb"] + rss_slope * extra,
        "alloc_mb": None,
        "checksum": None,
        "fit_anchors_flows": [low["num_flows"], high["num_flows"]],
        "fit_rss_kb_per_flow": rss_slope * 1024.0,
    }


def measure(quick: bool = False) -> Dict[str, Any]:
    """Run the sweep and assemble the baseline record."""
    grid = GRID[:1] if quick else GRID
    points: List[Dict[str, Any]] = []
    dense_measured: List[Dict[str, Any]] = []
    for k, pairs, members in grid:
        num_flows = pairs * members
        sparse = _run_child("sparse", k, pairs, members)
        if num_flows <= DENSE_FLOW_LIMIT:
            dense = _run_child("dense", k, pairs, members)
            dense_measured.append(dense)
            if dense["checksum"] != sparse["checksum"]:
                raise AssertionError(
                    f"sparse rates diverge from dense at k={k}, {num_flows} flows"
                )
        else:
            dense = _extrapolate_dense(
                dense_measured, k, pairs, members, sparse["num_arcs"]
            )
        points.append({"dense": dense, "sparse": sparse})

    flagship = points[-1]
    return {
        "grid": [
            {"k": k, "pairs": pairs, "members": members} for k, pairs, members in grid
        ],
        "dense_flow_limit": DENSE_FLOW_LIMIT,
        "demand_classes_bps": list(DEMAND_CLASSES),
        "points": points,
        "flagship": {
            "k": flagship["sparse"]["k"],
            "num_flows": flagship["sparse"]["num_flows"],
            "sparse_step_seconds": flagship["sparse"]["step_seconds"],
            "sparse_peak_rss_mb": flagship["sparse"]["peak_rss_mb"],
            "dense_peak_rss_mb": flagship["dense"]["peak_rss_mb"],
            "dense_mode": flagship["dense"]["mode"],
            "rss_ratio": flagship["dense"]["peak_rss_mb"]
            / flagship["sparse"]["peak_rss_mb"],
        },
    }


def _check_identity(results: Dict[str, Any]) -> None:
    """Bit-identity wherever both engine paths actually ran — never relaxed."""
    for point in results["points"]:
        dense, sparse = point["dense"], point["sparse"]
        if dense["mode"] == "measured":
            assert dense["checksum"] == sparse["checksum"], (
                f"sparse rates diverge from dense at k={dense['k']}, "
                f"{dense['num_flows']} flows"
            )


def _gate_rss(results: Dict[str, Any]) -> Optional[str]:
    """The flagship memory gates; returns a failure message or ``None``."""
    if os.environ.get("ENGINE_BENCH_SKIP_RSS_GATE"):
        return None
    flagship = results["flagship"]
    if flagship["rss_ratio"] < RSS_RATIO_FLOOR:
        return (
            f"sparse RSS only {flagship['rss_ratio']:.2f}x below dense "
            f"at k={flagship['k']} / {flagship['num_flows']} flows "
            f"(floor: {RSS_RATIO_FLOOR}x)"
        )
    if flagship["sparse_peak_rss_mb"] > SPARSE_RSS_CEILING_MB:
        return (
            f"sparse peak RSS {flagship['sparse_peak_rss_mb']:.0f} MB above "
            f"the {SPARSE_RSS_CEILING_MB:.0f} MB ceiling"
        )
    return None


def test_engine_scale_sparse_identity_and_memory(benchmark, run_once):
    # The pytest entry runs the quick (k=8) tier: spawn-isolated dense and
    # sparse children, bit-identity asserted.  The RSS-ratio gate only
    # applies to the flagship point, which the quick tier does not reach.
    results = run_once(measure, quick=True)
    _check_identity(results)
    point = results["points"][0]
    benchmark.extra_info["num_flows"] = point["sparse"]["num_flows"]
    benchmark.extra_info["sparse_step_ms"] = round(
        point["sparse"]["step_seconds"] * 1e3, 3
    )
    benchmark.extra_info["sparse_peak_rss_mb"] = round(
        point["sparse"]["peak_rss_mb"], 1
    )
    assert point["dense"]["mode"] == "measured"


def main(argv: List[str]) -> int:
    if len(argv) >= 2 and argv[1] == "--child":
        mode, k, pairs, members = argv[2], int(argv[3]), int(argv[4]), int(argv[5])
        sys.path.insert(0, str(SRC_PATH))
        print(json.dumps(measure_point(mode, k, pairs, members)))
        return 0

    quick = "--quick" in argv
    results = measure(quick=quick)
    _check_identity(results)
    for point in results["points"]:
        for engine in ("dense", "sparse"):
            row = point[engine]
            rss = f"{row['peak_rss_mb']:.1f}"
            print(
                f"k={row['k']:<3} flows={row['num_flows']:<8} {engine:<7}"
                f"[{row['mode']}] step={row['step_seconds']:.3f}s rss={rss}MB"
            )
    if not quick:
        BASELINE_PATH.write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline written to {BASELINE_PATH.name}")
        failure = _gate_rss(results)
        if failure:
            print(f"FAIL: {failure}")
            return 1
        flagship = results["flagship"]
        print(
            f"OK: k={flagship['k']} with {flagship['num_flows']} flows — "
            f"sparse step {flagship['sparse_step_seconds']:.2f}s at "
            f"{flagship['sparse_peak_rss_mb']:.0f} MB, "
            f"{flagship['rss_ratio']:.1f}x below the "
            f"{flagship['dense_mode']} dense path"
        )
    else:
        print("OK: quick tier — sparse bit-identical to dense")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
