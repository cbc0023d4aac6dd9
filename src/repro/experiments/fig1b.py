"""Figure 1b: recomputation rate of state-of-the-art approaches on GÉANT.

Paper result: recomputing the minimal network subset after every 15-minute
interval of the GÉANT trace changes the active-element set up to four times
per hour (the upper bound allowed by the trace granularity), so a network
that recomputes on every change spends much of its time reconfiguring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.recomputation import RecomputationSeries, recomputation_rate
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
class Fig1bResult:
    """Series and headline statistics of the Figure 1b reproduction."""

    series: RecomputationSeries

    @property
    def max_rate_per_hour(self) -> float:
        """Peak hourly recomputation rate (paper: up to 4/hour)."""
        return self.series.max_rate_per_hour

    @property
    def mean_rate_per_hour(self) -> float:
        """Average hourly recomputation rate."""
        return self.series.mean_rate_per_hour

    def rows(self) -> List[tuple]:
        """Plotted rows: (hour start [s], recomputations in that hour)."""
        return list(zip(
            self.series.hour_start_s,
            self.series.recomputations_per_hour,
            strict=True,
        ))


def geant_replay_spec(
    num_days: int,
    num_pairs: int,
    num_endpoints: int,
    peak_total_bps: float,
    subsample: int,
    seed: int,
    name: str = "geant-replay",
) -> ScenarioSpec:
    """The GÉANT per-interval recomputation scenario (Figures 1b and 2a)."""
    return ScenarioSpec(
        name=name,
        topology=TopologySpec("geant"),
        traffic=TrafficSpec(
            "geant-trace",
            num_days=num_days,
            num_pairs=num_pairs,
            num_endpoints=num_endpoints,
            peak_total_bps=peak_total_bps,
            subsample=subsample,
            seed=seed,
        ),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("greente", k=5),),
    )


def run_fig1b(
    num_days: int = 3,
    num_pairs: int = 110,
    num_endpoints: int = 16,
    peak_total_bps: float = 80e9,
    subsample: int = 1,
    seed: int = 2005,
) -> Fig1bResult:
    """Reproduce Figure 1b on the synthetic GÉANT trace.

    Args:
        num_days: Days of trace to replay (the paper replays 15; the default
            keeps the benchmark short while spanning several diurnal cycles).
        num_pairs: Random origin-destination pairs carrying traffic.
        num_endpoints: Size of the random subset of PoPs acting as origins
            and destinations (as in the paper's pair selection).
        peak_total_bps: Peak aggregate demand of the synthetic trace; the
            default drives the busiest links close to capacity, which is what
            forces the minimal subset to change between intervals.
        subsample: Keep every ``subsample``-th interval of the 15-minute trace.
        seed: Trace generator seed.
    """
    spec = geant_replay_spec(
        num_days=num_days,
        num_pairs=num_pairs,
        num_endpoints=num_endpoints,
        peak_total_bps=peak_total_bps,
        subsample=subsample,
        seed=seed,
        name="fig1b",
    )
    built = build_scenario(spec)
    configurations = scheme_outcomes(built)["greente"]["configurations"]
    return Fig1bResult(series=recomputation_rate(configurations, built.trace.interval_s))
