"""Identification of energy-critical paths (Section 3.3).

The paper's key observation: when the energy-optimal routing is recomputed
for every interval of a long trace, "a large majority of node pairs route
their packets through very few, reoccurring paths — we refer to these as
energy-critical paths".  For GÉANT two paths per pair cover about 98 % of the
traffic and three cover essentially all of it; a fat-tree needs about five.

This module ranks, for every origin-destination pair, the paths observed
across a sequence of per-interval routings by the traffic they carried, and
computes the coverage curve of Figure 2b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple


from ..exceptions import TrafficError
from ..routing.paths import Path, RoutingTable
from ..traffic.matrix import Pair
from ..traffic.replay import TrafficTrace


@dataclass(frozen=True)
class RankedPath:
    """A path and the total traffic it carried over the analysed trace."""

    path: Path
    carried_bps: float
    intervals_used: int


def rank_paths_by_traffic(
    trace: TrafficTrace,
    routings: Sequence[RoutingTable],
) -> Dict[Pair, List[RankedPath]]:
    """Rank every pair's observed paths by the traffic they carried.

    Args:
        trace: The demand trace.
        routings: One routing table per trace interval (the routing that was
            in effect — e.g. the per-interval optimal routing, or the routing
            REsPoNse's planner selected).

    Returns:
        For every pair, its observed paths sorted by carried traffic
        (descending).

    Raises:
        TrafficError: If the number of routings does not match the trace.
    """
    if len(routings) != len(trace):
        raise TrafficError(
            f"need one routing per interval: {len(routings)} routings "
            f"for {len(trace)} intervals"
        )
    carried: Dict[Pair, Dict[Tuple[str, ...], float]] = {}
    used: Dict[Pair, Dict[Tuple[str, ...], int]] = {}
    path_objects: Dict[Tuple[str, ...], Path] = {}

    for interval, routing in zip(trace, routings, strict=True):
        for pair, demand in interval.matrix.items():
            path = routing.get(*pair)
            if path is None:
                continue
            key = path.nodes
            path_objects[key] = path
            carried.setdefault(pair, {})[key] = (
                carried.get(pair, {}).get(key, 0.0) + demand * trace.interval_s
            )
            used.setdefault(pair, {})[key] = used.get(pair, {}).get(key, 0) + 1

    ranked: Dict[Pair, List[RankedPath]] = {}
    for pair, per_path in carried.items():
        entries = [
            RankedPath(
                path=path_objects[key],
                carried_bps=volume,
                intervals_used=used[pair][key],
            )
            for key, volume in per_path.items()
        ]
        entries.sort(key=lambda entry: entry.carried_bps, reverse=True)
        ranked[pair] = entries
    return ranked


def coverage_curve(
    ranked: Mapping[Pair, Sequence[RankedPath]],
    max_paths: int = 5,
) -> List[float]:
    """Fraction of total traffic covered by each pair's top-X paths.

    This is the y-axis of Figure 2b: for ``X = 1 .. max_paths``, the fraction
    of all carried traffic that would have been covered had every pair only
    been allowed its top-X paths.
    """
    if max_paths < 1:
        raise TrafficError(f"max_paths must be >= 1, got {max_paths}")
    total = sum(entry.carried_bps for entries in ranked.values() for entry in entries)
    if total <= 0.0:
        return [1.0] * max_paths
    curve: List[float] = []
    for top in range(1, max_paths + 1):
        covered = sum(
            sum(entry.carried_bps for entry in entries[:top])
            for entries in ranked.values()
        )
        curve.append(covered / total)
    return curve


def paths_needed_for_coverage(
    ranked: Mapping[Pair, Sequence[RankedPath]],
    target_fraction: float = 0.98,
    max_paths: int = 10,
) -> int:
    """Smallest number of per-pair paths whose coverage reaches the target."""
    if not 0.0 < target_fraction <= 1.0:
        raise TrafficError(f"target_fraction must be in (0, 1], got {target_fraction}")
    curve = coverage_curve(ranked, max_paths=max_paths)
    for index, fraction in enumerate(curve, start=1):
        if fraction >= target_fraction:
            return index
    return max_paths
