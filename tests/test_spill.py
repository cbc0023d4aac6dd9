"""Tests for the per-interval NDJSON series spill (bounded-memory replay)."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.scenario import (
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
)
from repro.scenario.engine import run_built_scenario
from repro.scenario.spill import SeriesSpill, iter_spill_rows
from repro.scenario.timeline import SpilledSchemeRun


def spec(**overrides):
    settings = dict(
        name="spill-fattree",
        topology=TopologySpec("fattree", k=4),
        traffic=TrafficSpec("sinewave", mode="near", num_intervals=3, seed=4),
        power=PowerSpec("commodity", ports_at_peak=4),
        schemes=(SchemeSpec("response", num_paths=3, k=4), SchemeSpec("ecmp")),
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


def strip_wall_clock(payload):
    """Drop the only fields allowed to differ between replays: wall-clock."""
    payload = json.loads(json.dumps(payload))  # deep copy
    payload.pop("compute_seconds", None)
    for records in payload.get("reactions", {}).values():
        for record in records:
            if isinstance(record, dict):
                record.pop("compute_seconds", None)
    return payload


def test_spilled_result_identical_to_in_memory(tmp_path):
    built = build_scenario(spec())
    in_memory = run_built_scenario(built)
    sidecar = tmp_path / "series.ndjson"
    spilled = run_built_scenario(build_scenario(spec()), spill_path=sidecar)
    assert strip_wall_clock(spilled.to_dict()) == strip_wall_clock(
        in_memory.to_dict()
    )
    assert sidecar.exists()


def test_hook_and_spill_on_one_run_see_the_same_intervals(tmp_path):
    """Every sink is fed the same per-interval record.

    With ``on_interval`` **and** ``spill_path`` on one run, the streamed
    outcomes, the sidecar rows and the in-memory series of a plain run are
    the same values (wall-clock step costs aside).
    """
    in_memory = run_built_scenario(build_scenario(spec()))
    sidecar = tmp_path / "series.ndjson"
    streamed = []

    def on_interval(step, outcomes):
        streamed.append(
            {
                "index": step.index,
                "time_s": step.time_s,
                "events": step.fired,
                "schemes": {label: outcome.record() for label, outcome in outcomes.items()},
            }
        )

    both = run_built_scenario(
        build_scenario(spec()), on_interval=on_interval, spill_path=sidecar
    )
    rows = list(iter_spill_rows(sidecar))
    assert streamed == rows  # exact, compute_seconds included: one record, two sinks
    assert [row["time_s"] for row in rows] == in_memory.times_s
    for label in ("response", "ecmp"):
        for metric, series in (
            ("power_percent", in_memory.power_percent[label]),
            ("max_utilisation", in_memory.max_utilisation[label]),
            ("violation", in_memory.violations[label]),
        ):
            assert [row["schemes"][label][metric] for row in rows] == series
    assert strip_wall_clock(both.to_dict()) == strip_wall_clock(in_memory.to_dict())


def test_spill_rows_are_wellformed_ndjson(tmp_path):
    sidecar = tmp_path / "series.ndjson"
    built = build_scenario(spec())
    run_built_scenario(built, spill_path=sidecar)
    lines = sidecar.read_text().splitlines()
    assert len(lines) == 3  # one row per interval
    for index, line in enumerate(lines):
        row = json.loads(line)
        assert row["index"] == index
        assert set(row) == {"index", "time_s", "events", "schemes"}
        assert set(row["schemes"]) == {"response", "ecmp"}
        for metrics in row["schemes"].values():
            assert set(metrics) == {
                "power_percent",
                "max_utilisation",
                "violation",
                "recomputed",
                "compute_seconds",
            }


def test_spilled_scheme_runs_hold_no_outcomes(tmp_path):
    sidecar = tmp_path / "series.ndjson"
    built = build_scenario(spec())
    result = run_built_scenario(built, spill_path=sidecar)
    # Bounded memory: the run keeps no per-interval outcome objects; the
    # series are re-read from the sidecar on demand.
    for label in ("response", "ecmp"):
        series = result.power_percent[label]
        assert len(series) == 3
    rows = list(iter_spill_rows(sidecar))
    assert len(rows) == 3
    for row in rows:
        assert set(row["schemes"]) == set(result.power_percent)


def test_spilled_scheme_run_requires_sidecar():
    orphan = SpilledSchemeRun(
        label="x", outcomes=[], details={}, recomputations=0, spill=None
    )
    with pytest.raises(ConfigurationError):
        orphan.power_percent()


def test_spill_rejects_writes_after_close(tmp_path):
    spill = SeriesSpill(tmp_path / "series.ndjson")
    spill.close()
    spill.close()  # idempotent
    with pytest.raises(ConfigurationError):
        spill.write_step(index=0, time_s=0.0, events=[], schemes={})


def test_spill_round_trips_floats_exactly(tmp_path):
    # JSON repr of a float round-trips bit-for-bit, which is what makes the
    # spilled series identical to the in-memory ones.
    value = 0.1 + 0.2  # not representable prettily
    sidecar = tmp_path / "series.ndjson"
    with SeriesSpill(sidecar) as spill:
        spill.write_step(
            index=0,
            time_s=value,
            events=[],
            schemes={
                "s": {
                    "power_percent": value,
                    "max_utilisation": value,
                    "violation": False,
                    "recomputed": False,
                    "compute_seconds": value,
                }
            },
        )
    row = next(iter_spill_rows(sidecar))
    assert row["time_s"] == value
    assert row["schemes"]["s"]["power_percent"] == value
