"""Figure 8b: ns-2-style simulation of a fat-tree datacenter.

Paper setup: a fat-tree topology whose demands follow the sine-wave pattern
and change every 30 seconds, with a 5 s port wake-up time.  Result: because
datacenter RTTs are tiny, the sending rates track the demand almost
immediately; the only visible lag is the wake-up of on-demand resources at
t = 30 s when the rising sine wave first exceeds what the always-on paths can
carry.
"""

from __future__ import annotations

from ..core.response import ResponseConfig, build_response_plan
from ..scenario import (
    PowerSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
)
from ..units import gbps
from .fig8a import Fig8Result, _simulate


def run_fig8b(
    k: int = 4,
    step_duration_s: float = 30.0,
    num_steps: int = 10,
    wake_delay_s: float = 5.0,
    peak_flow_bps: float = gbps(1.0),
    utilisation_threshold: float = 0.9,
    time_step_s: float = 0.25,
    mode: str = "far",
    seed: int = 8,
) -> Fig8Result:
    """Reproduce the fat-tree ns-2 experiment on the flow-level simulator.

    The stack (fat-tree × stepped sine-wave demand × commodity power) is
    declarative; the flow-level simulation runs on the built scenario.
    """
    spec = ScenarioSpec(
        name="fig8b",
        topology=TopologySpec("fattree", k=k),
        traffic=TrafficSpec(
            "sinewave",
            mode=mode,
            num_intervals=num_steps,
            period_intervals=num_steps,
            peak_flow_bps=peak_flow_bps,
            interval_s=step_duration_s,
            seed=seed,
        ),
        power=PowerSpec("commodity", ports_at_peak=k),
        utilisation_threshold=utilisation_threshold,
    )
    built = build_scenario(spec)
    # The datacenter plan uses traffic-aware (peak-matrix) on-demand paths: a
    # fat-tree's path diversity means the demand-oblivious stress heuristic
    # would fold the on-demand paths onto a single extra spanning tree, which
    # cannot absorb the sine wave's peak (the same reason Figure 2b needs ~5
    # energy-critical paths for the fat-tree but only ~3 for GÉANT).
    plan = build_response_plan(
        built.topology,
        built.power_model,
        pairs=built.pairs,
        peak_matrix=built.peak_matrix(),
        config=ResponseConfig(num_paths=3, k=6, on_demand_method="peak"),
    )
    return _simulate(built, plan, num_steps, step_duration_s, wake_delay_s, time_step_s)
