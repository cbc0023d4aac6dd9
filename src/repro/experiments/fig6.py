"""Figure 6: power consumption across utilisation levels in the Genuity topology.

Paper result: at util-10 the savings are around 30 %; as the load grows the
REsPoNse variants progressively activate more resources, approaching the
fully powered network at util-100.  REsPoNse-lat trades a little of the
savings for the latency bound, REsPoNse-heuristic (traffic-aware GreenTE
on-demand paths) saves more at high load, and even REsPoNse-ospf (on-demand
paths = OSPF table) remains energy-proportional.  The paper's optimal
per-demand recomputation lower-bounds them all; the ``optimal`` curve here
does not.  It is a path-restricted MILP (k candidate paths per pair) that
falls back to GreenTE where that MILP is infeasible, so at util-100 it reads
89.79 % against ``response-ospf``'s 87.21 %.  A certified lower bound is
ROADMAP item 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..scenario import (
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    run_scenario,
)

#: Variants plotted in the figure, in its legend order.
FIG6_VARIANTS = (
    "response-lat",
    "response",
    "response-ospf",
    "response-heuristic",
    "optimal",
)


@dataclass
class Fig6Result:
    """Power per utilisation level and variant.

    Attributes:
        utilisation_levels: The evaluated levels (percent of the calibrated
            maximum load, e.g. 10/50/100).
        power_percent: ``variant -> [power % per level]``.
    """

    utilisation_levels: List[float]
    power_percent: Dict[str, List[float]]

    def rows(self) -> List[tuple]:
        """Plotted rows: (util level, then one column per variant)."""
        rows = []
        for index, level in enumerate(self.utilisation_levels):
            rows.append(
                (f"util-{int(level)}",)
                + tuple(self.power_percent[variant][index] for variant in FIG6_VARIANTS)
            )
        return rows

    def savings_at(self, variant: str, level: float) -> float:
        """Savings of a variant at a utilisation level."""
        index = self.utilisation_levels.index(level)
        return 100.0 - self.power_percent[variant][index]


def fig6_variant_scheme(
    variant: str,
    latency_beta: float = 0.25,
    k: int = 3,
) -> SchemeSpec:
    """The registered scheme behind one Figure 6 variant."""
    if variant == "optimal":
        return SchemeSpec("optimal", k=k)
    if variant == "response":
        return SchemeSpec("response", num_paths=3, k=k)
    if variant == "response-lat":
        return SchemeSpec("response-lat", num_paths=3, k=k, latency_beta=latency_beta)
    if variant in ("response-ospf", "response-heuristic"):
        return SchemeSpec(variant, num_paths=3, k=k)
    raise ValueError(f"unknown Figure 6 variant {variant!r}")


def fig6_scenario_spec(
    variant: str,
    utilisation_levels: Sequence[float] = (10.0, 50.0, 100.0),
    num_pairs: int = 150,
    num_endpoints: int = 26,
    utilisation_threshold: float = 0.95,
    latency_beta: float = 0.25,
    k: int = 3,
    seed: int = 1,
) -> ScenarioSpec:
    """One Figure 6 variant as a declarative Genuity × gravity scenario."""
    return ScenarioSpec(
        name=f"fig6-{variant}",
        topology=TopologySpec("genuity"),
        traffic=TrafficSpec(
            "gravity",
            total_traffic_bps=1e9,
            num_pairs=num_pairs,
            num_endpoints=num_endpoints,
            calibrate=True,
            levels=[level / 100.0 for level in utilisation_levels],
            seed=seed,
        ),
        power=PowerSpec("cisco"),
        schemes=(fig6_variant_scheme(variant, latency_beta=latency_beta, k=k),),
        utilisation_threshold=utilisation_threshold,
    )


def run_fig6(
    utilisation_levels: Sequence[float] = (10.0, 50.0, 100.0),
    num_pairs: int = 150,
    num_endpoints: int = 26,
    utilisation_threshold: float = 0.95,
    latency_beta: float = 0.25,
    k: int = 3,
    seed: int = 1,
) -> Fig6Result:
    """Reproduce Figure 6 on the synthetic Genuity topology.

    Every variant (``optimal`` included, which is not a lower bound: see the
    module docstring) is a declarative scenario of
    its own (:func:`fig6_scenario_spec`); they run as the schemes of one
    combined scenario, so the setup they share (topology, gravity matrix,
    max-load calibration) is built once.  Variant names double as unique
    scheme labels.

    Args:
        utilisation_levels: Levels (percent of the calibrated maximum load).
        num_pairs: Random origin-destination pairs carrying gravity traffic.
        num_endpoints: Size of the random subset of PoPs acting as origins
            and destinations.
        utilisation_threshold: REsPoNseTE's activation SLO during the replay.
        latency_beta: Latency bound of the REsPoNse-lat variant.
        k: Candidate paths per pair for the solvers.
        seed: Seed for the pair selection and topology generation.
    """
    levels = tuple(utilisation_levels)
    combined = fig6_scenario_spec(
        FIG6_VARIANTS[0],
        utilisation_levels=levels,
        num_pairs=num_pairs,
        num_endpoints=num_endpoints,
        utilisation_threshold=utilisation_threshold,
        latency_beta=latency_beta,
        k=k,
        seed=seed,
    ).with_schemes(
        *(
            fig6_variant_scheme(variant, latency_beta=latency_beta, k=k)
            for variant in FIG6_VARIANTS
        ),
        name="fig6",
    )
    result = run_scenario(combined)
    power_percent = {variant: result.columns["power_percent"][variant] for variant in FIG6_VARIANTS}

    return Fig6Result(utilisation_levels=list(levels), power_percent=power_percent)
