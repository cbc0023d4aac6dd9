"""Sine-wave diurnal datacenter demand (Section 5.1 of the paper).

"We experiment with the same sine-wave demand as in [ElasticTree] to have a
fair comparison ... This demand mimics the diurnal traffic variation in a
datacenter where each flow takes a value from [0, 1 Gbps] range, following
the sin-wave.  We considered two cases: near (highly localized) traffic
matrices, where servers communicate only with other servers in the same pod,
and far (non-localized) traffic matrices where servers communicate mostly
with servers in other pods, through the network core."
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..exceptions import TrafficError
from ..topology.base import Topology
from ..topology.fattree import hosts, pod_of
from ..units import gbps
from .matrix import Pair, TrafficMatrix
from .replay import TrafficTrace

#: Default per-flow peak demand (the paper's [0, 1 Gbps] range).
DEFAULT_PEAK_FLOW_BPS = gbps(1.0)

#: Default sine period: one "day" compressed into the experiment duration.
DEFAULT_PERIOD_INTERVALS = 10


def sine_fraction(interval_index: int, period_intervals: int) -> float:
    """Demand fraction in ``[0, 1]`` following a raised sine wave.

    The wave starts at its minimum (0) for ``interval_index = 0`` so that an
    experiment begins in the low-traffic regime, mirroring Figure 4 where the
    power curve starts low, peaks mid-experiment and falls again.
    """
    if period_intervals <= 0:
        raise TrafficError(f"period must be positive, got {period_intervals}")
    angle = 2.0 * math.pi * interval_index / period_intervals
    return 0.5 * (1.0 - math.cos(angle))


def _near_pairs(topology: Topology, rng: np.random.Generator) -> List[Pair]:
    """Pairs of hosts within the same pod (highly localised traffic)."""
    pairs: List[Pair] = []
    host_names = hosts(topology)
    if not host_names:
        raise TrafficError("topology has no hosts; build the fat-tree with hosts")
    by_pod: dict = {}
    for host in host_names:
        by_pod.setdefault(pod_of(host), []).append(host)
    for pod_hosts in by_pod.values():
        shuffled = list(pod_hosts)
        rng.shuffle(shuffled)
        for source, destination in zip(shuffled, shuffled[1:] + shuffled[:1], strict=True):
            if source != destination:
                pairs.append((source, destination))
    return pairs


def _far_pairs(topology: Topology, rng: np.random.Generator) -> List[Pair]:
    """Pairs of hosts in different pods (traffic crosses the core).

    The mapping is a bijection (every host sends exactly one flow and
    receives exactly one flow), so the peak demand never oversubscribes a
    host access link — matching the all-to-all-style workload ElasticTree
    evaluates.  Hosts are sorted by pod and paired with the host half the
    ring away, which always lands in a different pod; the per-pod host order
    is shuffled so different seeds exercise different pairings.
    """
    host_names = hosts(topology)
    if not host_names:
        raise TrafficError("topology has no hosts; build the fat-tree with hosts")
    by_pod: dict = {}
    for host in host_names:
        by_pod.setdefault(pod_of(host), []).append(host)
    ordered: List[str] = []
    for pod in sorted(by_pod):
        pod_hosts = sorted(by_pod[pod])
        rng.shuffle(pod_hosts)
        ordered.extend(pod_hosts)
    num_hosts = len(ordered)
    half = num_hosts // 2
    return [
        (source, ordered[(index + half) % num_hosts])
        for index, source in enumerate(ordered)
        if source != ordered[(index + half) % num_hosts]
    ]


def fattree_sine_pairs(
    topology: Topology, mode: str, seed: int = 0
) -> List[Pair]:
    """The host pairs used by the near/far sine-wave workloads."""
    rng = np.random.default_rng(seed)
    if mode == "near":
        return _near_pairs(topology, rng)
    if mode == "far":
        return _far_pairs(topology, rng)
    raise TrafficError(f"mode must be 'near' or 'far', got {mode!r}")


def sine_wave_trace(
    topology: Topology,
    mode: str = "far",
    num_intervals: int = 11,
    period_intervals: int = DEFAULT_PERIOD_INTERVALS,
    peak_flow_bps: float = DEFAULT_PEAK_FLOW_BPS,
    interval_s: float = 60.0,
    utilisation_floor: float = 0.05,
    seed: int = 0,
    pairs: Optional[List[Pair]] = None,
) -> TrafficTrace:
    """Build the ElasticTree-style sine-wave demand trace on a fat-tree.

    Args:
        topology: A fat-tree built with hosts.
        mode: ``"near"`` (intra-pod) or ``"far"`` (inter-pod) communication.
        num_intervals: Number of trace intervals (Figure 4 spans roughly one
            period, i.e. time 0..10).
        period_intervals: Sine period expressed in intervals.
        peak_flow_bps: Per-flow demand at the top of the wave.
        interval_s: Wall-clock length of one interval.
        utilisation_floor: Minimum per-flow fraction of the peak so that the
            matrix never becomes exactly zero (flows are long-lived).
        seed: Seed for the (deterministic) pairing of hosts.
        pairs: Explicit host pairs to drive; defaults to
            :func:`fattree_sine_pairs` with the given mode and seed.

    Returns:
        A :class:`TrafficTrace` of ``num_intervals`` matrices.
    """
    if num_intervals <= 0:
        raise TrafficError(f"num_intervals must be positive, got {num_intervals}")
    if pairs is None:
        pairs = fattree_sine_pairs(topology, mode, seed=seed)
    matrices = []
    for index in range(num_intervals):
        fraction = max(sine_fraction(index, period_intervals), utilisation_floor)
        demand = peak_flow_bps * fraction
        matrices.append(
            TrafficMatrix.uniform(pairs, demand, name=f"sine-{mode}-{index}")
        )
    return TrafficTrace(
        matrices, interval_s=interval_s, name=f"sine-{mode}"
    )
