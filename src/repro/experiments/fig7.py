"""Figure 7: REsPoNseTE lets links sleep quickly and restores traffic after failure.

Paper setup (Click testbed, Section 5.3): the Figure 3 topology without
router B, 10 Mb/s links with 16.67 ms latency, routers A and C each sending
5 flows (~5 Mb/s total) toward K.  Initially the traffic is spread over the
on-demand paths; REsPoNseTE starts at t = 5 s and within about 200 ms
(2 RTTs of 6 hops × 16.67 ms) shifts all traffic onto the "middle" always-on
path E-H-K, letting the "upper" (A-D-G-K) and "lower" (C-F-J-K) paths sleep.
At t = 5.7 s the middle link E-H is failed; after the 100 ms detection delay
plus the 10 ms wake-up the traffic is restored on the previously sleeping
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.plan import ResponsePlan
from ..core.te import ResponseTEController, TEConfig
from ..routing.paths import RoutingTable
from ..scenario import (
    EventSpec,
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
)
from ..simulator.engine import SimulationEngine, SimulationResult
from ..simulator.failures import TopologyChange
from ..simulator.flows import Flow, constant_demand
from ..simulator.network import SimulatedNetwork
from ..topology.example import CLICK_LINK_LATENCY_S, example_paths
from ..units import mbps

#: The directed arcs identifying the three path groups plotted in the figure.
GROUP_ARCS = {
    "middle": ("E", "H"),
    "upper": ("D", "G"),
    "lower": ("F", "J"),
}


@dataclass
class Fig7Result:
    """Rate time series of the Figure 7 reproduction.

    Attributes:
        times_s: Sample times.
        rates_mbps: Load (Mb/s) on the arc identifying each path group:
            ``"middle"`` (always-on E-H), ``"upper"`` (on-demand D-G) and
            ``"lower"`` (on-demand F-J).
        sleep_convergence_s: Delay between the TE start and the moment the
            on-demand links went to sleep (paper: ≈0.2 s, two RTTs).
        restore_time_s: Delay between the failure and full rate restoration
            on the failover/on-demand paths (paper: ≈0.11 s).
    """

    times_s: List[float]
    rates_mbps: Dict[str, List[float]]
    sleep_convergence_s: Optional[float]
    restore_time_s: Optional[float]

    def rows(self) -> List[tuple]:
        """Plotted rows: (time, middle, lower, upper) in Mb/s."""
        return [
            (
                time,
                self.rates_mbps["middle"][index],
                self.rates_mbps["lower"][index],
                self.rates_mbps["upper"][index],
            )
            for index, time in enumerate(self.times_s)
        ]


#: The paper's timeline (s): the plotted window, the TE start, the E-H failure.
START_S = 4.0
TE_START_S = 5.0
FAILURE_S = 5.7
END_S = 6.5
#: Routers A and C each send 5 flows, ~5 Mb/s in total, toward K.
FLOWS_PER_SOURCE = 5
FLOW_RATE_BPS = mbps(0.5)
#: Restoration is the 100 ms detection delay plus the 10 ms wake-up.
WAKE_DELAY_S = 0.01
FAILURE_DETECTION_DELAY_S = 0.1
TIME_STEP_S = 0.005


def run_fig7() -> Fig7Result:
    """Reproduce the Click-testbed experiment on the flow-level simulator.

    The stack and the mid-run failure are declared as a scenario spec — the
    E-H link failure rides the ``events`` axis, and the engine takes the
    built scenario's topology changes.
    """
    per_source_bps = FLOWS_PER_SOURCE * FLOW_RATE_BPS
    spec = ScenarioSpec(
        name="fig7",
        topology=TopologySpec("example", include_b=False),
        traffic=TrafficSpec(
            "matrix",
            demands=[["A", "K", per_source_bps], ["C", "K", per_source_bps]],
            interval_s=END_S - START_S,
        ),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("response"),),
        events=(EventSpec("link-failure", time_s=FAILURE_S, link=["E", "H"]),),
    )
    built = build_scenario(spec)
    topology, power_model = built.topology, built.power_model
    # The installed paths are those the paper draws in Figure 3: the middle
    # always-on path, the upper/lower on-demand paths and the (coinciding)
    # failover paths.
    installed = example_paths()
    plan = ResponsePlan.from_tables(
        topology,
        power_model,
        always_on_table=RoutingTable(installed["always_on"], name="always-on"),
        on_demand_tables=[RoutingTable(installed["on_demand"], name="on-demand")],
        failover_table=RoutingTable(installed["failover"], name="failover"),
    )

    network = SimulatedNetwork(topology, power_model, wake_delay_s=WAKE_DELAY_S)
    flows: List[Flow] = []
    for source in ("A", "C"):
        for index in range(FLOWS_PER_SOURCE):
            flows.append(
                Flow(f"{source}{index}", source, "K", constant_demand(FLOW_RATE_BPS))
            )
    controller = ResponseTEController(
        plan,
        TEConfig(
            failure_detection_delay_s=FAILURE_DETECTION_DELAY_S,
            probe_interval_s=6 * CLICK_LINK_LATENCY_S,
            start_time_s=TE_START_S,
            initial_table_index=1,
        ),
    )
    engine = SimulationEngine(
        network,
        flows,
        controller,
        time_step_s=TIME_STEP_S,
        sample_interval_s=TIME_STEP_S,
        failures=[event for event in built.events if isinstance(event, TopologyChange)],
        monitored_arcs=list(GROUP_ARCS.values()),
    )
    result = engine.run(duration_s=END_S - START_S, start_s=START_S)

    times = result.times()
    rates = {
        group: [load / 1e6 for load in result.arc_load_series(*arc)]
        for group, arc in GROUP_ARCS.items()
    }

    sleep_convergence = _first_time(
        result, lambda sample: sample.sleeping_links >= 4, after=TE_START_S
    )
    expected_rate = FLOWS_PER_SOURCE * 2 * FLOW_RATE_BPS
    restore = _first_time(
        result,
        lambda sample: sample.total_rate_bps >= 0.99 * expected_rate,
        after=FAILURE_S + 1e-9,
    )
    return Fig7Result(
        times_s=times,
        rates_mbps=rates,
        sleep_convergence_s=(
            None if sleep_convergence is None else sleep_convergence - TE_START_S
        ),
        restore_time_s=None if restore is None else restore - FAILURE_S,
    )


def _first_time(result: SimulationResult, predicate, after: float) -> Optional[float]:
    for sample in result.samples:
        if sample.time_s >= after and predicate(sample):
            return sample.time_s
    return None
