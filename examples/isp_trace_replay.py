#!/usr/bin/env python3
"""ISP scenario: replay a GÉANT-like traffic trace over one precomputed plan.

Reproduces the essence of Figure 5 of the paper: a single off-line
computation of the always-on and on-demand paths is enough to serve days of
real(istic) traffic while saving roughly a third of the network power — and
noticeably more with the energy-proportional "alternative hardware" model.

Run with:  python examples/isp_trace_replay.py
"""

from repro import (
    AlternativeHardwarePowerModel,
    CiscoRouterPowerModel,
    ResponseConfig,
    activate_paths,
    build_response_plan,
)
from repro.topology import build_geant
from repro.traffic import generate_geant_trace, select_pairs_among_subset, trace_time_labels


def main() -> None:
    topology = build_geant()
    pairs = select_pairs_among_subset(topology.routers(), num_endpoints=20, num_pairs=110, seed=5)

    # Two days of 15-minute traffic matrices, subsampled to one point per hour
    # to keep the example quick.
    trace = generate_geant_trace(topology, num_days=2, pairs=pairs, seed=5).subsampled(4)
    labels = trace_time_labels(trace)
    print(f"Replaying {len(trace)} intervals of the synthetic GÉANT trace")

    for model_name, power_model in (
        ("Cisco 12000 (today's hardware)", CiscoRouterPowerModel()),
        ("alternative hardware (chassis / 10)", AlternativeHardwarePowerModel()),
    ):
        plan = build_response_plan(
            topology, power_model, pairs=pairs, config=ResponseConfig(num_paths=3, k=3)
        )
        results = [
            activate_paths(topology, power_model, plan, matrix) for matrix in trace.matrices()
        ]
        power = [result.power_percent for result in results]
        overloaded = sum(1 for result in results if result.overloaded_pairs)
        print(f"\n=== {model_name} ===")
        print(f"mean power   : {sum(power) / len(power):5.1f}% of the original network")
        print(f"mean savings : {100 - sum(power) / len(power):5.1f}%")
        print(f"power range  : {min(power):.1f}% .. {max(power):.1f}%")
        print(f"intervals with overloaded pairs: {overloaded}/{len(results)}")
        print("sample timeline (one point every 6 hours):")
        for index in range(0, len(results), 6):
            print(f"  {labels[index]:>13}  power {power[index]:5.1f}%")


if __name__ == "__main__":
    main()
