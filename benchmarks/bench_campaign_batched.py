"""Batched campaign execution — grouped evaluation against point-by-point.

Runs the same 24-point GÉANT grid as ``bench_campaign.py`` two ways —
point-by-point serial and ``--batch`` (grouped evaluation through
:func:`repro.experiments.runner.execute_scenario_batch`) — and asserts the
batched store is ``canonical_dump``-bit-identical to the serial one, both
for a clean drain and for an interrupted-then-resumed drain.  Records
points/s for both modes in ``BENCH_campaign_batched.json``.

Every leg starts with an empty calibration memo, so both rates are what a
fresh ``run-campaign`` process delivers.

Throughput context: the grid's 24 points share one topology/power/routing
signature, so batching builds the network stack once, shares traffic
calibration between SLO twins (24 → 12 builds), shares REsPoNse plans,
GreenTE candidates/solves and ECMP power evaluations across points, and
drives all points through one interval-major timeline pass.  The 12 distinct
load calibrations cost both legs the same ~0.2 s (three LPs each).  The
identity assertions always hold; the speed gate is relaxed on
shared/multi-core CI runners with ``CAMPAIGN_BATCH_BENCH_SKIP_SPEEDUP_GATE=1``,
like the other campaign benches.

Also runnable standalone (writes the baseline JSON):

    PYTHONPATH=src python benchmarks/bench_campaign_batched.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from multiprocessing import cpu_count
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).parent))

from bench_campaign import INTERRUPT_AFTER, campaign_spec  # noqa: E402

from repro.campaign import CampaignStore, run_campaign  # noqa: E402
from repro.traffic import clear_calibration_cache  # noqa: E402

#: Batched execution must beat point-by-point serial by this factor, both
#: legs cold (measured 2.35-2.67x on the 2-CPU box: 18-22 vs 45-57 points/s).
SPEEDUP_FLOOR = 1.8

BASELINE_PATH = Path(__file__).parent / "BENCH_campaign_batched.json"


def measure() -> Dict[str, Any]:
    """Serial vs batched throughput plus the batched resume identity."""
    spec = campaign_spec()
    grid_size = spec.grid_size()
    with tempfile.TemporaryDirectory() as workdir:
        serial_store = os.path.join(workdir, "serial.sqlite")
        batched_store = os.path.join(workdir, "batched.sqlite")
        resumed_store = os.path.join(workdir, "resumed.sqlite")

        # A memo left warm leaks into the next leg, which then calibrates
        # for free.
        clear_calibration_cache()
        serial = run_campaign(spec, store_path=serial_store)
        clear_calibration_cache()
        batched = run_campaign(spec, store_path=batched_store, batch=True)

        # Interrupted batched drain (the deterministic stand-in for a
        # kill), resumed in batch mode: only the missing points run, and
        # the final store must still match the serial one bit-for-bit.
        clear_calibration_cache()
        interrupted = run_campaign(
            spec, store_path=resumed_store, max_points=INTERRUPT_AFTER, batch=True
        )
        clear_calibration_cache()
        resumed = run_campaign(spec, store_path=resumed_store, batch=True)

        with CampaignStore(serial_store) as store:
            serial_dump = store.canonical_dump(serial.campaign_id)
        with CampaignStore(batched_store) as store:
            batched_dump = store.canonical_dump(batched.campaign_id)
        with CampaignStore(resumed_store) as store:
            resumed_dump = store.canonical_dump(resumed.campaign_id)

    return {
        "grid_points": float(grid_size),
        "serial_s": serial.elapsed_s,
        "batched_s": batched.elapsed_s,
        "points_per_s_serial": serial.points_per_second,
        "points_per_s_batched": batched.points_per_second,
        "batched_speedup": (
            serial.elapsed_s / batched.elapsed_s if batched.elapsed_s else 0.0
        ),
        "cpus": float(cpu_count()),
        "serial_failed": float(serial.failed),
        "batched_failed": float(batched.failed),
        "batched_store_identical": float(batched_dump == serial_dump),
        "interrupted_executed": float(interrupted.executed),
        "interrupted_remaining": float(interrupted.remaining),
        "resumed_executed": float(resumed.executed),
        "resumed_remaining": float(resumed.remaining),
        "resumed_store_identical": float(resumed_dump == serial_dump),
    }


def _check(results: Dict[str, Any]) -> None:
    """The always-on invariants of a healthy batched run."""
    assert results["serial_failed"] == 0.0
    assert results["batched_failed"] == 0.0
    assert results["batched_store_identical"] == 1.0
    assert results["interrupted_executed"] == float(INTERRUPT_AFTER)
    assert results["resumed_executed"] == results["grid_points"] - INTERRUPT_AFTER
    assert results["resumed_remaining"] == 0.0
    assert results["resumed_store_identical"] == 1.0


def _gate_speedup(results: Dict[str, Any]) -> bool:
    """Whether the speedup floor applies in this environment.

    Shared/multi-core CI runners make wall-clock comparisons flaky, so the
    gate only applies on dedicated single-core boxes and can always be
    relaxed with the env var.
    """
    if os.environ.get("CAMPAIGN_BATCH_BENCH_SKIP_SPEEDUP_GATE"):
        return False
    return results["cpus"] == 1


def test_campaign_batched_throughput_and_identity(benchmark, run_once):
    results = run_once(measure)
    for key, value in results.items():
        benchmark.extra_info[key] = round(value, 4)
    _check(results)
    if _gate_speedup(results):
        assert results["batched_speedup"] >= SPEEDUP_FLOOR, (
            f"batched campaign only {results['batched_speedup']:.2f}x faster "
            f"than serial (floor: {SPEEDUP_FLOOR}x)"
        )


if __name__ == "__main__":
    outcome = measure()
    BASELINE_PATH.write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n")
    for key, value in outcome.items():
        print(f"{key}: {value:.4f}")
    _check(outcome)
    if _gate_speedup(outcome) and outcome["batched_speedup"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: batched speedup {outcome['batched_speedup']:.2f}x below "
            f"the floor ({SPEEDUP_FLOOR}x)"
        )
        raise SystemExit(1)
    print(
        f"OK: {int(outcome['grid_points'])}-point grid at "
        f"{outcome['points_per_s_serial']:.2f} points/s serial vs "
        f"{outcome['points_per_s_batched']:.2f} points/s batched "
        f"({outcome['batched_speedup']:.2f}x); batched and resumed stores "
        f"bit-identical to serial; baseline written to {BASELINE_PATH.name}"
    )
