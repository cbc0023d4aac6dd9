"""Figure 5: REsPoNse power consumption for the GÉANT traffic replay.

Paper result: replaying 15 days of GÉANT traffic matrices, REsPoNse saves
about 30 % of the network power with today's hardware model and about 42 %
with the alternative (energy-proportional chassis) model, the power varies
little despite large demand swings (the always-on paths absorb the traffic
most of the time), and a single off-line computation of the always-on and
on-demand paths suffices for the whole period.  The OSPF baseline keeps every
element busy and stays at ~100 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..scenario import (
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    run_scenario,
)


@dataclass
class Fig5Result:
    """Power time series of the Figure 5 reproduction.

    Attributes:
        times_s: Interval start times (seconds since trace start).
        power_percent: Power (% of original) per curve: ``"ospf"``,
            ``"response"`` and ``"response_alternative_hw"``.
        mean_savings_percent: Average savings per curve.
        recomputations_needed: Number of times the plan had to be recomputed
            during the replay (always zero: the plan is computed once).
    """

    times_s: List[float]
    power_percent: Dict[str, List[float]]
    mean_savings_percent: Dict[str, float]
    recomputations_needed: int = 0

    def rows(self) -> List[tuple]:
        """Plotted rows: (time, ospf, response, response alternative HW)."""
        return [
            (
                time,
                self.power_percent["ospf"][index],
                self.power_percent["response"][index],
                self.power_percent["response_alternative_hw"][index],
            )
            for index, time in enumerate(self.times_s)
        ]


def fig5_scenario_spec(
    power: str,
    num_days: int = 3,
    num_pairs: int = 110,
    num_endpoints: int = 20,
    subsample: int = 2,
    utilisation_threshold: float = 0.9,
    peak_total_bps: Optional[float] = None,
    seed: int = 2005,
    include_ospf: bool = False,
) -> ScenarioSpec:
    """The Figure 5 replay under one power model (``cisco``/``alternative``)."""
    traffic_params: Dict[str, object] = dict(
        num_days=num_days,
        num_pairs=num_pairs,
        num_endpoints=num_endpoints,
        subsample=subsample,
        seed=seed,
    )
    if peak_total_bps is not None:
        traffic_params["peak_total_bps"] = peak_total_bps
    schemes = [SchemeSpec("response", num_paths=3, k=3)]
    if include_ospf:
        schemes.append(SchemeSpec("ospf"))
    return ScenarioSpec(
        name=f"fig5-{power}",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec("geant-trace", params=traffic_params),
        power=PowerSpec(power),
        schemes=tuple(schemes),
        utilisation_threshold=utilisation_threshold,
    )


def run_fig5(
    num_days: int = 3,
    num_pairs: int = 110,
    num_endpoints: int = 20,
    subsample: int = 2,
    utilisation_threshold: float = 0.9,
    peak_total_bps: Optional[float] = None,
    seed: int = 2005,
) -> Fig5Result:
    """Reproduce Figure 5 on the synthetic GÉANT trace.

    One declarative scenario per hardware model (the trace and pair
    selection are deterministic given the seed, so both replay identical
    demands); the OSPF baseline rides on the first.

    Args:
        num_days: Days of trace replayed (paper: 15).
        num_pairs: Random origin-destination pairs carrying traffic.
        num_endpoints: Size of the random subset of PoPs acting as origins
            and destinations (the paper's "random subsets ... as in [24]").
        subsample: Keep every ``subsample``-th 15-minute interval.
        utilisation_threshold: REsPoNseTE's link-utilisation SLO.
        peak_total_bps: Override the trace's peak aggregate demand.
        seed: Trace generator seed.
    """
    results = {}
    for label, power in (("response", "cisco"), ("response_alternative_hw", "alternative")):
        spec = fig5_scenario_spec(
            power,
            num_days=num_days,
            num_pairs=num_pairs,
            num_endpoints=num_endpoints,
            subsample=subsample,
            utilisation_threshold=utilisation_threshold,
            peak_total_bps=peak_total_bps,
            seed=seed,
            include_ospf=(label == "response"),
        )
        results[label] = run_scenario(spec)

    power = {label: result.columns["power_percent"] for label, result in results.items()}
    power_percent: Dict[str, List[float]] = {
        "ospf": power["response"]["ospf"],
        "response": power["response"]["response"],
        "response_alternative_hw": power["response_alternative_hw"]["response"],
    }
    mean_savings = {
        label: 100.0 - sum(series) / len(series)
        for label, series in power_percent.items()
    }
    return Fig5Result(
        times_s=results["response"].times_s,
        power_percent=power_percent,
        mean_savings_percent=mean_savings,
        recomputations_needed=0,
    )
