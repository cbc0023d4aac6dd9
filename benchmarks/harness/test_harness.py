"""Harness self-tests: statistics, spans, generators and the manifest.

Collected by the tier-1 command; runs no workload and loads nothing from
``src/``.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def manifest():
    with open(run.MANIFEST_PATH, encoding="utf-8") as stream:
        return json.load(stream)


# -- percentiles ------------------------------------------------------- #


@pytest.mark.parametrize(
    "count, expected",
    [(6, 50.0), (19, 50.0), (40, 75.0), (128, 90.0), (199, 90.0), (200, 95.0), (1500, 99.0)],
)
def test_supported_percentile_keeps_ten_samples_beyond(count, expected):
    rank = measure.supported_percentile(count)
    assert rank == expected
    if rank > 50.0:
        assert count * (1.0 - rank / 100.0) >= measure.MIN_SAMPLES_BEYOND
    higher = [p for p in measure.PERCENTILES if p > rank]
    if higher:
        assert count * (1.0 - higher[0] / 100.0) < measure.MIN_SAMPLES_BEYOND


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert measure.percentile(samples, 50.0) == 50.0
    assert measure.percentile(samples, 90.0) == 90.0
    assert measure.percentile(samples, 99.0) == 99.0
    assert measure.percentile([3.0], 99.0) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


def test_quartile_spread_matches_the_acceptance_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) gives 11.75 / 14.5 / 17.25 for these.
    assert measure.quartile_spread(values) == pytest.approx(5.5 / 14.5)


# -- spans ------------------------------------------------------------- #


def test_span_self_time_is_duration_minus_child_coverage():
    tree = [
        spans.Span(0, "root", 0.0, 10.0, None),
        spans.Span(1, "a", 1.0, 4.0, 0),
        spans.Span(2, "b", 3.0, 6.0, 0),  # overlaps a: the union covers 1..6
        spans.Span(3, "a.inner", 1.5, 2.0, 1),
        spans.Span(4, "late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_recorder_nests_spans_and_keeps_the_parent():
    recorder = spans.SpanRecorder()
    with recorder.span("outer") as outer:
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    names = [(span.name, span.parent) for span in recorder.spans]
    assert names == [("outer", None), ("inner", outer.span_id), ("inner", outer.span_id)]
    assert all(span.end_s >= span.start_s for span in recorder.spans)
    records = recorder.to_dicts()
    assert records[0]["self_s"] <= outer.duration_s
    assert records[1]["self_s"] == recorder.spans[1].duration_s


# -- workload inputs ----------------------------------------------------- #


@pytest.mark.parametrize(
    "generate",
    [
        workloads.geant_grid,
        workloads.uniform_grid,
        workloads.replay_scenario,
        workloads.service_replay_scenario,
        workloads.engine_inputs,
    ],
)
def test_generators_are_deterministic_and_seeded(generate):
    assert generate(11) == generate(11)
    assert generate(11) != generate(12)
    json.dumps(generate(11))  # plain data only


def test_service_writer_grids_are_new_to_the_store():
    grids = [workloads.uniform_grid(11, generation) for generation in range(4)]
    volumes = {tuple(grid["axes"]["set"]["traffic.flow_bps"]) for grid in grids}
    assert len(volumes) == len(grids)
    assert len({grid["name"] for grid in grids}) == len(grids)


# -- the manifest -------------------------------------------------------- #


def test_manifest_names_match_what_the_harness_emits(manifest):
    assert [entry["name"] for entry in manifest["workloads"]] == list(run.WORKLOADS)
    end_to_end = {entry["name"]: entry["unit"] for entry in manifest["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {entry["name"]: entry["unit"] for entry in manifest["per_layer"]}
    assert per_layer == layers.PER_LAYER_UNITS


def test_manifest_obeys_the_contract(manifest):
    assert set(manifest) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert entry["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
    setup = next(entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in manifest["end_to_end"])
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    for path in manifest["paths"]:
        assert os.path.isdir(os.path.join(run.ROOT, path))
    assert manifest["command"][-1] == os.path.relpath(run.__file__, run.ROOT)


# -- compare ------------------------------------------------------------- #


def _record(workload, value, failed=0):
    return {
        "workload": workload,
        "trace": 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {"call_ms_p50": {"value": value, "unit": "ms"}},
    }


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.03 for v in steady], "lower", 0.1)[0] == "within bound"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1)[0] == "improved"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)[0] == "improved"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.1)[0] == "unresolved"
    # Every new run beats every base run: the spread no longer matters.
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.1)[0] == "improved"


def test_compare_fails_on_regression_or_more_failures(manifest):
    base = [_record("engine_step", 100.0)]
    rows, passed = compare.compare(base, [_record("engine_step", 104.0)], manifest)
    assert passed and [row["verdict"] for row in rows] == ["within bound"]
    _rows, passed = compare.compare(base, [_record("engine_step", 200.0)], manifest)
    assert not passed
    rows, passed = compare.compare(base, [_record("engine_step", 100.0, failed=1)], manifest)
    assert not passed and rows[-1]["metric"] == "failed_share"
