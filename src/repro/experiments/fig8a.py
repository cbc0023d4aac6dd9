"""Figure 8a: ns-2-style simulation of the PoP-access ISP topology.

Paper setup: the hierarchical Italian-ISP (PoP-access) topology, traffic
demands re-drawn from the gravity model every 30 seconds, a 5 s wake-up time
for sleeping ports.  Result: per-pair sending rates match the offered demand
within a few RTTs; only the step at t = 90 s is delayed by the 5 s needed to
wake additional on-demand resources; the network power tracks the activation
of those resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.plan import ResponsePlan
from ..core.response import ResponseConfig, build_response_plan
from ..core.te import ResponseTEController, TEConfig
from ..scenario import (
    BuiltScenario,
    PowerSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
)
from ..simulator.engine import SimulationEngine
from ..simulator.flows import Flow, stepped_demand
from ..simulator.network import SimulatedNetwork
from ..traffic.matrix import TrafficMatrix


@dataclass
class Fig8Result:
    """Demand / sending-rate / power time series of a Figure 8 simulation.

    Attributes:
        times_s: Sample times.
        demand_bps: Aggregate offered demand.
        sending_rate_bps: Aggregate achieved sending rate.
        power_percent: Network power as a percentage of the original.
        wake_stall_s: Longest period during which the achieved rate lagged
            the demand by more than 5 % after a demand increase (the visible
            effect of the wake-up delay).
    """

    times_s: List[float]
    demand_bps: List[float]
    sending_rate_bps: List[float]
    power_percent: List[float]
    wake_stall_s: float

    def rows(self) -> List[tuple]:
        """Plotted rows: (time, demand, sending rate, power %)."""
        return list(
            zip(
                self.times_s,
                self.demand_bps,
                self.sending_rate_bps,
                self.power_percent,
                strict=True,
            )
        )


def _demand_levels_to_steps(
    levels: Sequence[TrafficMatrix], step_duration_s: float
) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
    """Per-pair piecewise-constant demand steps from a sequence of matrices."""
    steps: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for index, matrix in enumerate(levels):
        start = index * step_duration_s
        for pair, demand in matrix.items():
            steps.setdefault(pair, []).append((start, demand))
    return steps


def _measure_wake_stall(
    times: List[float], demand: List[float], rate: List[float]
) -> float:
    """Longest contiguous period with rate more than 5 % below demand."""
    longest = 0.0
    current_start: Optional[float] = None
    for time, offered, achieved in zip(times, demand, rate, strict=True):
        lagging = offered > 0 and achieved < 0.95 * offered
        if lagging and current_start is None:
            current_start = time
        elif not lagging and current_start is not None:
            longest = max(longest, time - current_start)
            current_start = None
    if current_start is not None and times:
        longest = max(longest, times[-1] - current_start)
    return longest


def run_fig8a(
    num_pairs: int = 12,
    step_duration_s: float = 30.0,
    num_steps: int = 5,
    wake_delay_s: float = 5.0,
    utilisation_levels: Sequence[float] = (0.25, 0.5, 0.5, 1.0, 0.75),
    utilisation_threshold: float = 0.9,
    time_step_s: float = 0.25,
    seed: int = 8,
) -> Fig8Result:
    """Reproduce the PoP-access ns-2 experiment on the flow-level simulator.

    The stack (PoP-access topology × stepped calibrated gravity demand ×
    Cisco power) is declarative; the flow-level simulation of the REsPoNseTE
    control loop runs on top of the built scenario.

    Args:
        num_pairs: Metro-to-metro origin-destination pairs.
        step_duration_s: Seconds between demand changes (the paper uses 30 s).
        num_steps: Number of demand steps.
        wake_delay_s: Wake-up time of sleeping ports (the paper's 5 s bound).
        utilisation_levels: Fraction of the calibrated peak demand offered at
            each step; an increase large enough to need on-demand paths
            produces the wake-up stall the paper reports at t = 90 s.
        utilisation_threshold: REsPoNseTE's activation SLO.
        time_step_s: Simulation step.
        seed: Pair-selection seed.
    """
    # The peak matrix keeps the gravity proportions and is calibrated, as in
    # the paper, to the largest volume the full network can carry (util-100):
    # the step to utilisation 1.0 then genuinely needs on-demand capacity.
    spec = ScenarioSpec(
        name="fig8a",
        topology=TopologySpec("pop-access"),
        traffic=TrafficSpec(
            "gravity",
            params=dict(
                total_traffic_bps=1e9,
                num_pairs=num_pairs,
                level="metro",
                pair_method="random",
                calibrate=True,
                levels=list(utilisation_levels[:num_steps]),
                interval_s=step_duration_s,
                name="pop-access",
                seed=seed,
            ),
        ),
        power=PowerSpec("cisco"),
        utilisation_threshold=utilisation_threshold,
    )
    built = build_scenario(spec)
    plan = build_response_plan(
        built.topology,
        built.power_model,
        pairs=built.pairs,
        peak_matrix=built.peak_matrix(),
        config=ResponseConfig(num_paths=3, k=3),
    )
    return _simulate(built, plan, num_steps, step_duration_s, wake_delay_s, time_step_s)


def _simulate(
    built: BuiltScenario,
    plan: ResponsePlan,
    num_steps: int,
    step_duration_s: float,
    wake_delay_s: float,
    time_step_s: float,
) -> Fig8Result:
    """Run REsPoNseTE on the flow-level simulator over the built scenario's
    trace, one flow per pair and one demand step per matrix."""
    network = SimulatedNetwork(built.topology, built.power_model, wake_delay_s=wake_delay_s)
    steps = _demand_levels_to_steps(built.trace.matrices(), step_duration_s)
    flows = [
        Flow(f"{origin}->{destination}", origin, destination, stepped_demand(pair_steps))
        for (origin, destination), pair_steps in steps.items()
    ]
    controller = ResponseTEController(
        plan,
        TEConfig(
            utilisation_threshold=built.spec.utilisation_threshold,
            release_threshold=0.6,
        ),
    )
    engine = SimulationEngine(
        network,
        flows,
        controller,
        time_step_s=time_step_s,
        sample_interval_s=time_step_s,
    )
    result = engine.run(duration_s=num_steps * step_duration_s)

    times = result.times()
    demand = result.series("total_demand_bps")
    rate = result.series("total_rate_bps")
    return Fig8Result(
        times_s=times,
        demand_bps=demand,
        sending_rate_bps=rate,
        power_percent=result.power_series(),
        wake_stall_s=_measure_wake_stall(times, demand, rate),
    )
