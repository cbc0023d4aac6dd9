"""Timeline engine — incremental scheme runtimes vs cold-start replay.

The timeline engine keeps per-scheme state alive across intervals: GreenTE's
candidate k-shortest paths are computed once per surviving topology, and the
REsPoNse plan is built once and only re-activated.  This benchmark measures
that against the cold-start replay the engine replaced — rebuilding the
solver/plan state from scratch at every interval — on the two paper stacks:

* GEANT x synthetic GEANT trace x GreenTE (candidate reuse), and
* fat-tree x sine-wave trace x REsPoNse (plan built once vs per interval),

asserting bit-identical power series and an incremental speedup, and timing
an eventful GEANT replay (mid-trace link failure) to record the
recomputation-latency proxy baseline in ``BENCH_timeline.json``.

Also runnable standalone (writes the baseline JSON):

    PYTHONPATH=src python benchmarks/bench_timeline_events.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict

from repro.core.planner import activate_paths
from repro.core.response import ResponseConfig, build_response_plan
from repro.scenario import (
    EventSpec,
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
    run_built_scenario,
)
from repro.scenario.schemes import greente_replay

#: The incremental timeline must beat cold-start by at least this factor.
SPEEDUP_FLOOR = 1.5

BASELINE_PATH = Path(__file__).parent / "BENCH_timeline.json"


def geant_spec(**overrides: Any) -> ScenarioSpec:
    settings: Dict[str, Any] = dict(
        name="timeline-geant",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec(
            "geant-trace", num_days=1, num_pairs=110, num_endpoints=16, subsample=4
        ),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("greente"),),
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


def fattree_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="timeline-fattree",
        topology=TopologySpec("fattree", k=4),
        traffic=TrafficSpec("sinewave", mode="far", num_intervals=12, seed=4),
        power=PowerSpec("commodity", ports_at_peak=4),
        schemes=(SchemeSpec("response", num_paths=3, k=4),),
    )


def measure_geant_greente() -> Dict[str, float]:
    """Incremental (shared candidate cache) vs cold-start GreenTE replay."""
    built = build_scenario(geant_spec())

    start = time.perf_counter()
    result = run_built_scenario(built)
    incremental_s = time.perf_counter() - start
    incremental = result.power_percent["greente"]

    # Cold start: a fresh candidate-path provider per interval, exactly what
    # the pre-timeline loop paid when solver state was rebuilt from scratch.
    start = time.perf_counter()
    cold = []
    for matrix in built.trace.matrices():
        solution = greente_replay(
            built.topology,
            built.power_model,
            [matrix],
            k=5,
            ordering="stable",
        )[0]
        cold.append(100.0 * solution.power_w / built.baseline_power_w)
    cold_s = time.perf_counter() - start

    return {
        "intervals": float(len(built.trace)),
        "incremental_s": incremental_s,
        "cold_start_s": cold_s,
        "speedup": cold_s / incremental_s,
        "series_identical": float(incremental == cold),
    }


def measure_fattree_response() -> Dict[str, float]:
    """REsPoNse plan built once (timeline) vs rebuilt per interval."""
    built = build_scenario(fattree_spec())
    config = ResponseConfig(num_paths=3, k=4)
    threshold = built.spec.utilisation_threshold

    start = time.perf_counter()
    result = run_built_scenario(built)
    incremental_s = time.perf_counter() - start
    incremental = result.power_percent["response"]

    start = time.perf_counter()
    cold = []
    for matrix in built.trace.matrices():
        plan = build_response_plan(
            built.topology, built.power_model, pairs=built.pairs, config=config
        )
        activation = activate_paths(
            built.topology,
            built.power_model,
            plan,
            matrix,
            utilisation_threshold=threshold,
        )
        cold.append(activation.power_percent)
    cold_s = time.perf_counter() - start

    return {
        "intervals": float(len(built.trace)),
        "incremental_s": incremental_s,
        "cold_start_s": cold_s,
        "speedup": cold_s / incremental_s,
        "series_identical": float(incremental == cold),
    }


def measure_geant_failure_reaction() -> Dict[str, float]:
    """Recomputation-latency proxy of an eventful GEANT replay."""
    spec = geant_spec(
        name="timeline-geant-failure",
        schemes=(SchemeSpec("response", num_paths=3, k=3), SchemeSpec("greente")),
        events=(
            EventSpec("link-failure", time_s=6 * 3600.0, link=["DE", "FR"]),
        ),
    )
    result = run_built_scenario(build_scenario(spec))
    response_reaction = result.reaction["response"][0]
    greente_reaction = result.reaction["greente"][0]
    return {
        "intervals": float(len(result.times_s)),
        "response_mean_step_s": sum(result.compute_seconds["response"])
        / len(result.times_s),
        "greente_mean_step_s": sum(result.compute_seconds["greente"])
        / len(result.times_s),
        "response_reaction_s": response_reaction["compute_seconds"],
        "greente_reaction_s": greente_reaction["compute_seconds"],
        "response_post_failure_power_percent": response_reaction["power_percent"],
        "greente_recomputations": float(result.recomputations["greente"]),
    }


def measure() -> Dict[str, Dict[str, float]]:
    """All three sections of the baseline."""
    return {
        "geant_greente": measure_geant_greente(),
        "fattree_response": measure_fattree_response(),
        "geant_failure_reaction": measure_geant_failure_reaction(),
    }


def test_timeline_incremental_beats_cold_start_on_geant(benchmark, run_once):
    results = run_once(measure_geant_greente)
    for key, value in results.items():
        benchmark.extra_info[key] = round(value, 4)
    assert results["series_identical"] == 1.0  # warm state never changes results
    assert results["speedup"] >= SPEEDUP_FLOOR, (
        f"incremental timeline only {results['speedup']:.2f}x faster than "
        f"cold-start on GEANT (floor: {SPEEDUP_FLOOR}x)"
    )


def test_timeline_incremental_beats_cold_start_on_fattree(benchmark, run_once):
    results = run_once(measure_fattree_response)
    for key, value in results.items():
        benchmark.extra_info[key] = round(value, 4)
    assert results["series_identical"] == 1.0
    assert results["speedup"] >= SPEEDUP_FLOOR, (
        f"incremental timeline only {results['speedup']:.2f}x faster than "
        f"cold-start on the fat-tree (floor: {SPEEDUP_FLOOR}x)"
    )


def test_timeline_failure_reaction_metrics(benchmark, run_once):
    results = run_once(measure_geant_failure_reaction)
    for key, value in results.items():
        benchmark.extra_info[key] = round(value, 6)
    # REsPoNse reacts by activation only: its post-failure step must stay
    # cheap relative to a scheme that re-solves on the degraded topology.
    assert results["response_reaction_s"] < results["greente_reaction_s"]
    assert 0.0 < results["response_post_failure_power_percent"] <= 100.0


if __name__ == "__main__":
    import os

    outcome = measure()
    BASELINE_PATH.write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n")
    for section, values in outcome.items():
        print(f"{section}:")
        for key, value in values.items():
            print(f"  {key}: {value:.4f}")
    failed = False
    for section in ("geant_greente", "fattree_response"):
        if outcome[section]["series_identical"] != 1.0:
            print(f"FAIL: {section} series differ between incremental and cold")
            failed = True
    # Shared CI runners make wall-clock gates flaky; set
    # TIMELINE_BENCH_SKIP_SPEEDUP_GATE=1 to report timings without failing.
    if not os.environ.get("TIMELINE_BENCH_SKIP_SPEEDUP_GATE"):
        for section in ("geant_greente", "fattree_response"):
            if outcome[section]["speedup"] < SPEEDUP_FLOOR:
                print(f"FAIL: {section} speedup below {SPEEDUP_FLOOR}x")
                failed = True
    if failed:
        raise SystemExit(1)
    print(
        f"OK: incremental timeline {outcome['geant_greente']['speedup']:.1f}x "
        f"(GEANT/GreenTE) and {outcome['fattree_response']['speedup']:.1f}x "
        f"(fat-tree/REsPoNse) faster than cold-start; baseline written to "
        f"{BASELINE_PATH.name}"
    )
