"""Figure 4: power versus time for sinusoidal traffic in a k=4 fat-tree.

Paper result: REsPoNse matches ElasticTree's formal solution (their curves
coincide); with *near* (intra-pod) traffic the power drops to a small
fraction of the original at the trough and stays well below 100 % even at the
peak, with *far* (inter-pod) traffic the network must keep the core awake at
the peak so savings shrink there, and ECMP stays flat at ~100 % because it
spreads load over every element.

The whole stack is declarative: each traffic mode is one
:class:`~repro.scenario.spec.ScenarioSpec` (fat-tree topology × sine-wave
traffic × commodity power × response/elastictree/ecmp schemes) run through
:func:`repro.scenario.engine.run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..scenario import (
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    run_scenario,
)


@dataclass
class Fig4Result:
    """Power time series of the Figure 4 reproduction.

    Attributes:
        times: Interval indices (the x-axis of the figure).
        power_percent: Power (% of original) per technique:
            ``"ecmp"``, ``"response_near"``, ``"response_far"``,
            ``"elastictree_near"``, ``"elastictree_far"``.
    """

    times: List[float]
    power_percent: Dict[str, List[float]]

    def rows(self) -> List[tuple]:
        """Plotted rows: (time, ecmp, response_far, response_near)."""
        return [
            (
                time,
                self.power_percent["ecmp"][index],
                self.power_percent["response_far"][index],
                self.power_percent["response_near"][index],
            )
            for index, time in enumerate(self.times)
        ]

    def mean_savings_percent(self, technique: str) -> float:
        """Average savings of a technique over the experiment."""
        series = self.power_percent[technique]
        return 100.0 - sum(series) / len(series)


def fig4_scenario_spec(
    mode: str,
    k: int = 4,
    num_intervals: int = 11,
    utilisation_threshold: float = 0.9,
    include_elastictree: bool = True,
    include_ecmp: bool = False,
    seed: int = 4,
) -> ScenarioSpec:
    """The declarative scenario behind one Figure 4 traffic mode."""
    schemes = [SchemeSpec("response", num_paths=3, k=4)]
    if include_elastictree:
        schemes.append(SchemeSpec("elastictree"))
    if include_ecmp:
        schemes.append(SchemeSpec("ecmp"))
    return ScenarioSpec(
        name=f"fig4-{mode}",
        topology=TopologySpec("fattree", k=k),
        traffic=TrafficSpec(
            "sinewave", mode=mode, num_intervals=num_intervals, seed=seed
        ),
        power=PowerSpec("commodity", ports_at_peak=k),
        schemes=tuple(schemes),
        utilisation_threshold=utilisation_threshold,
    )


def run_fig4(
    k: int = 4,
    num_intervals: int = 11,
    utilisation_threshold: float = 0.9,
    include_elastictree: bool = True,
    seed: int = 4,
) -> Fig4Result:
    """Reproduce Figure 4 on a k-ary fat-tree with sine-wave demand.

    The near and far traffic modes are independent scenarios (the ECMP
    baseline rides on the far scenario, whose trace it replays).
    """
    by_label = {
        mode: run_scenario(
            fig4_scenario_spec(
                mode,
                k=k,
                num_intervals=num_intervals,
                utilisation_threshold=utilisation_threshold,
                include_elastictree=include_elastictree,
                include_ecmp=(mode == "far"),
                seed=seed,
            )
        )
        for mode in ("near", "far")
    }

    times = [float(index) for index in range(num_intervals)]
    power: Dict[str, List[float]] = {"ecmp": by_label["far"].columns["power_percent"]["ecmp"]}
    for mode in ("near", "far"):
        power[f"response_{mode}"] = by_label[mode].columns["power_percent"]["response"]
        if include_elastictree:
            power[f"elastictree_{mode}"] = by_label[mode].columns["power_percent"]["elastictree"]
    return Fig4Result(times=times, power_percent=power)
