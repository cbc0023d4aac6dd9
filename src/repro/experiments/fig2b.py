"""Figure 2b: traffic coverage of the top-X energy-critical paths per pair.

Paper result: on GÉANT, 2 precomputed paths per pair cover almost 98 % of the
traffic and 3 cover essentially all of it; a fat-tree datacenter driven by
the Google volume trace needs about 5 paths because of its much higher path
diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.critical_paths import coverage_curve, paths_needed_for_coverage, rank_paths_by_traffic
from ..scenario import (
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
    scheme_outcomes,
)


@dataclass
class Fig2bResult:
    """Coverage curves of the Figure 2b reproduction.

    Attributes:
        coverage: Per-network list of coverage fractions for 1..max_paths
            energy-critical paths per pair (keys ``"geant"``, ``"fattree"``).
        paths_for_98_percent: Number of per-pair paths needed to cover 98 %
            of the traffic, per network.
    """

    coverage: Dict[str, List[float]]
    paths_for_98_percent: Dict[str, int]

    def rows(self) -> List[tuple]:
        """Plotted rows: (number of paths, coverage geant, coverage fattree)."""
        geant = self.coverage.get("geant", [])
        fattree = self.coverage.get("fattree", [])
        length = max(len(geant), len(fattree))
        rows = []
        for index in range(length):
            rows.append(
                (
                    index + 1,
                    geant[index] if index < len(geant) else None,
                    fattree[index] if index < len(fattree) else None,
                )
            )
        return rows


def _coverage_of(spec: ScenarioSpec, max_paths: int) -> tuple:
    """Coverage curve and 98 %-coverage path count of one network scenario."""
    built = build_scenario(spec)
    solutions = scheme_outcomes(built)["greente"]["solutions"]
    # GreenTE always routes: every per-interval solution carries its table.
    ranked = rank_paths_by_traffic(built.trace, [solution.routing for solution in solutions])
    return (
        coverage_curve(ranked, max_paths=max_paths),
        paths_needed_for_coverage(ranked, 0.98, max_paths=max_paths),
    )


def run_fig2b(
    geant_days: int = 2,
    geant_pairs: int = 110,
    geant_endpoints: int = 16,
    geant_peak_total_bps: float = 80e9,
    fattree_k: int = 4,
    fattree_days: int = 1,
    fattree_peak_total_bps: float = 12e9,
    max_paths: int = 5,
    candidate_k: int = 6,
    seed: int = 2005,
) -> Fig2bResult:
    """Reproduce Figure 2b for both a GÉANT-like ISP and a fat-tree datacenter.

    Both networks are declarative scenarios sharing the per-interval GreenTE
    scheme; only the topology × traffic × power composition differs.

    Args:
        geant_days: Days of the GÉANT-like trace to replay.
        geant_pairs: Random origin-destination pairs on GÉANT.
        fattree_k: Fat-tree arity (the paper uses 36 core switches, i.e.
            ``k=12``; the default keeps the benchmark small — the qualitative
            gap between ISP and datacenter survives at ``k=4``).
        fattree_days: Days of the Google-like volume trace driving the
            fat-tree workload.
        max_paths: Largest number of per-pair paths on the x-axis.
        candidate_k: Candidate paths per pair available to the per-interval
            solver (must exceed ``max_paths`` for the curve to be meaningful).
        seed: Trace generator seed.
    """
    coverage: Dict[str, List[float]] = {}
    needed: Dict[str, int] = {}

    # GÉANT-like ISP network.
    geant_spec = ScenarioSpec(
        name="fig2b-geant",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec(
            "geant-trace",
            num_days=geant_days,
            num_pairs=geant_pairs,
            num_endpoints=geant_endpoints,
            peak_total_bps=geant_peak_total_bps,
            seed=seed,
        ),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("greente", k=candidate_k),),
    )
    coverage["geant"], needed["geant"] = _coverage_of(geant_spec, max_paths)

    # Fat-tree datacenter driven by the Google-like volume series.
    fattree_spec = ScenarioSpec(
        name="fig2b-fattree",
        topology=TopologySpec("fattree", k=fattree_k),
        traffic=TrafficSpec(
            "google-trace",
            num_days=fattree_days,
            peak_total_bps=fattree_peak_total_bps,
            seed=seed,
        ),
        power=PowerSpec("commodity", ports_at_peak=fattree_k),
        schemes=(SchemeSpec("greente", k=candidate_k + 2),),
    )
    coverage["fattree"], needed["fattree"] = _coverage_of(fattree_spec, max_paths)

    return Fig2bResult(coverage=coverage, paths_for_98_percent=needed)
