"""Campaign subsystem — grid throughput and the resume guarantee.

Runs a 24-point campaign (GÉANT × calibrated gravity at three load levels ×
REsPoNse/GreenTE/ECMP, swept over seeds, pair counts, demand totals and the
utilisation SLO) through the persistent results store three ways:

* **serial** — a clean end-to-end run (the throughput baseline),
* **parallel** — the same grid fanned out over the process pool, and
* **interrupted + resumed** — killed after 10 points (``max_points``), then
  re-invoked; the resumed store must match the clean serial store
  bit-for-bit (modulo wall-clock fields) and only the missing points may
  execute.

Records points/sec for both execution modes in ``BENCH_campaign.json``;
the identity assertions are the gate.  Every leg starts with an empty
calibration memo, as a fresh ``run-campaign`` process does.  There is no
parallel-speedup floor: with cold legs the pool is 1.0-1.2x serial on
2 CPUs, a 24-point grid being ~1.2 s of work against the pool's start-up.

Also runnable standalone (writes the baseline JSON):

    PYTHONPATH=src python benchmarks/bench_campaign.py
"""

from __future__ import annotations

import json
import os
import tempfile
from multiprocessing import cpu_count
from pathlib import Path
from typing import Any, Dict

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.traffic import clear_calibration_cache

#: How many points the "interrupted" run completes before the kill.
INTERRUPT_AFTER = 10

BASELINE_PATH = Path(__file__).parent / "BENCH_campaign.json"


def campaign_spec() -> CampaignSpec:
    """The 24-point grid: 3 seeds x 2 pair counts x 2 totals x 2 SLOs."""
    return CampaignSpec.from_dict(
        {
            "name": "bench-geant-grid",
            "base": {
                "topology": "geant",
                "traffic": {
                    "name": "gravity",
                    "params": {
                        "num_endpoints": 8,
                        "calibrate": True,
                        "levels": [0.25, 0.5, 1.0],
                    },
                },
                "power": "cisco",
                "schemes": [
                    {"name": "response", "params": {"num_paths": 3, "k": 3}},
                    {"name": "greente", "params": {}},
                    {"name": "ecmp", "params": {}},
                ],
            },
            "axes": {
                "seed": [0, 1, 2],
                "set": {
                    "traffic.num_pairs": [8, 12],
                    "traffic.total_traffic_bps": [1e9, 2e9],
                    "scenario.utilisation_threshold": [0.85, 0.9],
                },
            },
        }
    )


def measure() -> Dict[str, Any]:
    """Serial vs parallel throughput plus the interrupted-resume identity."""
    spec = campaign_spec()
    grid_size = spec.grid_size()
    with tempfile.TemporaryDirectory() as workdir:
        serial_store = os.path.join(workdir, "serial.sqlite")
        parallel_store = os.path.join(workdir, "parallel.sqlite")
        resumed_store = os.path.join(workdir, "resumed.sqlite")

        # A memo left warm leaks into the next leg (a forked pool inherits
        # it), which then calibrates for free.
        clear_calibration_cache()
        serial = run_campaign(spec, store_path=serial_store)
        clear_calibration_cache()
        parallel = run_campaign(spec, store_path=parallel_store, parallel=True)

        clear_calibration_cache()
        interrupted = run_campaign(
            spec, store_path=resumed_store, max_points=INTERRUPT_AFTER
        )
        clear_calibration_cache()
        resumed = run_campaign(spec, store_path=resumed_store)

        with CampaignStore(serial_store) as store:
            serial_dump = store.canonical_dump(serial.campaign_id)
        with CampaignStore(parallel_store) as store:
            parallel_dump = store.canonical_dump(parallel.campaign_id)
        with CampaignStore(resumed_store) as store:
            resumed_dump = store.canonical_dump(resumed.campaign_id)

    return {
        "grid_points": float(grid_size),
        "serial_s": serial.elapsed_s,
        "parallel_s": parallel.elapsed_s,
        "points_per_s_serial": serial.points_per_second,
        "points_per_s_parallel": parallel.points_per_second,
        "parallel_speedup": (
            serial.elapsed_s / parallel.elapsed_s if parallel.elapsed_s else 0.0
        ),
        "cpus": float(cpu_count()),
        "serial_failed": float(serial.failed),
        "parallel_store_identical": float(parallel_dump == serial_dump),
        "interrupted_executed": float(interrupted.executed),
        "interrupted_remaining": float(interrupted.remaining),
        "resumed_executed": float(resumed.executed),
        "resumed_remaining": float(resumed.remaining),
        "resumed_store_identical": float(resumed_dump == serial_dump),
    }


def _check(results: Dict[str, Any]) -> None:
    """The always-on invariants of a healthy campaign run."""
    assert results["serial_failed"] == 0.0
    assert results["parallel_store_identical"] == 1.0
    assert results["interrupted_executed"] == float(INTERRUPT_AFTER)
    assert results["resumed_executed"] == results["grid_points"] - INTERRUPT_AFTER
    assert results["resumed_remaining"] == 0.0
    assert results["resumed_store_identical"] == 1.0


def test_campaign_grid_throughput_and_resume(benchmark, run_once):
    results = run_once(measure)
    for key, value in results.items():
        benchmark.extra_info[key] = round(value, 4)
    _check(results)


if __name__ == "__main__":
    outcome = measure()
    BASELINE_PATH.write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n")
    for key, value in outcome.items():
        print(f"{key}: {value:.4f}")
    _check(outcome)
    print(
        f"OK: {int(outcome['grid_points'])}-point grid at "
        f"{outcome['points_per_s_serial']:.2f} points/s serial, "
        f"{outcome['points_per_s_parallel']:.2f} points/s parallel; "
        f"interrupted run resumed to a bit-identical store; baseline written "
        f"to {BASELINE_PATH.name}"
    )
