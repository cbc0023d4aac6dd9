"""Tests for the campaign subsystem: spec expansion, store, resume, report."""

import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    PointRecord,
    deviation_from_best,
    filter_rows,
    format_table,
    parse_filters,
    rows_to_csv,
    rows_to_json,
    run_campaign,
    scheme_dominance,
    summarise,
)
from repro.exceptions import ConfigurationError
from repro.experiments.runner import main
from repro.scenario import ScenarioResult


def base_scenario():
    """A cheap stack whose two schemes produce different power numbers."""
    return {
        "topology": "geant",
        "traffic": {
            "name": "uniform",
            "params": {"num_pairs": 6, "num_endpoints": 5, "flow_bps": 1e8, "seed": 0},
        },
        "power": "cisco",
        "schemes": [{"name": "response", "params": {"num_paths": 2, "k": 2}}, "ecmp"],
    }


def campaign_dict(name="grid", axes=None):
    return {
        "name": name,
        "base": base_scenario(),
        "axes": axes
        if axes is not None
        else {"seed": [0, 1], "set": {"traffic.flow_bps": [1e8, 1.5e8]}},
    }


def eight_point_campaign(name="grid8"):
    return campaign_dict(
        name,
        axes={
            "seed": [0, 1],
            "set": {
                "traffic.flow_bps": [1e8, 1.5e8],
                "scenario.utilisation_threshold": [0.85, 0.9],
            },
        },
    )


# --------------------------------------------------------------------- #
# Spec expansion
# --------------------------------------------------------------------- #
def test_set_axis_on_null_params_and_label():
    """``null`` params / label read as absent, as ``ScenarioSpec.from_dict`` reads them."""
    base = base_scenario()
    base["power"] = {"name": "cisco", "params": None}
    base["schemes"] = [{"name": "response", "label": None, "params": None}, "ecmp"]
    points = CampaignSpec.from_dict(
        {
            "name": "nulls",
            "base": base,
            "axes": {"set": {"response.k": [2, 3], "power.include_amplifiers": [False]}},
        }
    ).expand()
    assert [point.spec.schemes[0].params for point in points] == [{"k": 2}, {"k": 3}]
    assert all(point.spec.power.params == {"include_amplifiers": False} for point in points)


def test_campaign_spec_round_trip_and_identity():
    spec = CampaignSpec.from_dict(campaign_dict())
    rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt.to_dict() == spec.to_dict()
    assert rebuilt.campaign_id() == spec.campaign_id()
    # A different axis value is a different campaign.
    other = CampaignSpec.from_dict(campaign_dict(axes={"seed": [0, 1, 2]}))
    assert other.campaign_id() != spec.campaign_id()


def test_campaign_spec_rejects_unknown_keys_and_axes():
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_dict({"name": "x", "base": base_scenario(), "extra": 1})
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_dict(
            {"name": "x", "base": base_scenario(), "axes": {"nope": [1]}}
        )
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_dict({"name": "x"})  # no base
    with pytest.raises(ConfigurationError, match="scenario spec mapping"):
        CampaignSpec.from_dict({"name": "x", "base": ["not", "a", "mapping"]})
    with pytest.raises(ConfigurationError):  # empty axis list
        CampaignSpec.from_dict(
            {"name": "x", "base": base_scenario(), "axes": {"seed": []}}
        )
    with pytest.raises(ConfigurationError):  # non-integer seed
        CampaignSpec.from_dict(
            {"name": "x", "base": base_scenario(), "axes": {"seed": ["a"]}}
        )
    with pytest.raises(ConfigurationError):  # set target without a dot
        CampaignSpec.from_dict(
            {"name": "x", "base": base_scenario(), "axes": {"set": {"seed": [1]}}}
        )


def test_expand_grid_order_names_and_hashes():
    spec = CampaignSpec.from_dict(campaign_dict())
    points = spec.expand()
    assert spec.grid_size() == len(points) == 4
    # Canonical axis order, rightmost axis fastest.
    assert [point.axes for point in points] == [
        {"seed": 0, "traffic.flow_bps": 1e8},
        {"seed": 0, "traffic.flow_bps": 1.5e8},
        {"seed": 1, "traffic.flow_bps": 1e8},
        {"seed": 1, "traffic.flow_bps": 1.5e8},
    ]
    assert points[0].name.startswith("grid/seed=0/")
    assert len({point.config_hash for point in points}) == 4
    # The applied coordinates landed in each scenario spec.
    assert points[3].spec.traffic.params["seed"] == 1
    assert points[3].spec.traffic.params["flow_bps"] == 1.5e8
    # Expansion is deterministic.
    again = CampaignSpec.from_dict(campaign_dict()).expand()
    assert [point.config_hash for point in again] == [
        point.config_hash for point in points
    ]


def test_example_campaign_id_and_point_hashes_are_pinned():
    """Literal ids: both are keys in stores that already exist."""
    example = os.path.join(
        os.path.dirname(__file__), "..", "examples", "campaign_geant_grid.json"
    )
    with open(example, encoding="utf-8") as handle:
        spec = CampaignSpec.from_dict(json.load(handle))
    assert (
        spec.campaign_id()
        == "38dd0d88bafeb171a9bb1794115fe3aea69dbc3affb82f99d785eed337ed85af"
    )
    assert [point.config_hash[:12] for point in spec.expand()] == [
        "72cb83f14dc3",
        "26b7ca774b4e",
        "9946fccaebf4",
        "611a91f011d5",
    ]


def test_campaign_and_service_import_nothing_from_experiments():
    """The layers under the command line do not import upward: no figure
    driver and no application model is loaded by a campaign or the service."""
    code = (
        "import sys, repro.campaign, repro.service\n"
        "print([name for name in sys.modules"
        " if name.startswith(('repro.experiments', 'repro.apps'))])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    assert out.strip() == "[]"


def test_expand_component_scheme_and_event_axes():
    spec = CampaignSpec.from_dict(
        {
            "name": "axes",
            "base": base_scenario(),
            "axes": {
                "topology": ["geant", {"name": "fattree", "params": {"k": 4}}],
                "schemes": [["ospf"], [{"name": "response", "params": {"k": 2}}, "ecmp"]],
                "events": [
                    [],
                    [{"name": "link-failure", "params": {"time_s": 900.0, "link": ["DE", "FR"]}}],
                ],
            },
        }
    )
    points = spec.expand()
    assert len(points) == 8
    labels = {point.axes["schemes"] for point in points}
    assert labels == {"ospf", "response+ecmp"}
    assert {point.axes["events"] for point in points} == {"none", "link-failure"}
    assert {point.axes["topology"] for point in points} == {"geant", "fattree(k=4)"}
    eventful = [point for point in points if point.axes["events"] != "none"]
    assert all(point.spec.events for point in eventful)


def test_expand_rejects_redundant_axes_and_invalid_points():
    # seed axis + a set range over traffic.seed collapse to equal hashes.
    redundant = CampaignSpec.from_dict(
        campaign_dict(axes={"seed": [0, 1], "set": {"traffic.seed": [0, 1]}})
    )
    with pytest.raises(ConfigurationError, match="identical scenarios"):
        redundant.expand()
    # Shorthand and explicit forms of the same component also collide
    # (identity compares normalised specs, not raw axis entries).
    shorthand = CampaignSpec.from_dict(
        campaign_dict(axes={"topology": ["geant", {"name": "geant", "params": {}}]})
    )
    with pytest.raises(ConfigurationError, match="identical scenarios"):
        shorthand.expand()
    # An unknown component name fails at expansion, naming the point.
    unknown = CampaignSpec.from_dict(
        campaign_dict(axes={"topology": ["geant", "not-a-topology"]})
    )
    with pytest.raises(ConfigurationError, match="not-a-topology"):
        unknown.expand()
    # A grid whose points name no schemes is rejected at expansion.
    base = base_scenario()
    del base["schemes"]
    no_schemes = CampaignSpec.from_dict(
        {"name": "x", "base": base, "axes": {"seed": [0]}}
    )
    with pytest.raises(ConfigurationError, match="schemes"):
        no_schemes.expand()


# --------------------------------------------------------------------- #
# Store
# --------------------------------------------------------------------- #
def test_store_register_is_idempotent_and_preserves_status(tmp_path):
    spec = CampaignSpec.from_dict(campaign_dict())
    points = spec.expand()
    store_path = tmp_path / "store.sqlite"
    with CampaignStore(store_path) as store:
        campaign_id = store.register_campaign(spec, points)
        run_campaign(spec, store_path=store_path, max_points=1)
        statuses = [row["status"] for row in store.points(campaign_id)]
        assert statuses.count("done") == 1
        # Re-registering must not reset the completed point.
        assert store.register_campaign(spec, points) == campaign_id
        assert [row["status"] for row in store.points(campaign_id)] == statuses
        assert len(store.campaigns()) == 1


def test_store_records_results_and_metrics(tmp_path):
    spec = CampaignSpec.from_dict(campaign_dict())
    store_path = tmp_path / "store.sqlite"
    summary = run_campaign(spec, store_path=store_path)
    assert (summary.executed, summary.failed, summary.remaining) == (4, 0, 0)
    with CampaignStore(store_path) as store:
        counts = store.status_counts(summary.campaign_id)
        assert counts == {"done": 4, "error": 0, "pending": 0, "total": 4}
        points = store.points(summary.campaign_id)
        result = store.result(points[0]["config_hash"])
        assert isinstance(result, ScenarioResult)
        assert result.config_hash == points[0]["config_hash"]
        assert set(result.labels()) == {"response", "ecmp"}
        rows = store.metric_rows(summary.campaign_id)
        assert len(rows) == 8  # 4 points x 2 schemes
        assert {row["scheme"] for row in rows} == {"response", "ecmp"}
        assert all("mean_power_percent" in row and "seed" in row for row in rows)
        assert len(points) == 4
        assert points[0]["axes"] == {"seed": 0, "traffic.flow_bps": 1e8}


def test_find_campaign_selects_in_sql_as_the_listing_filter_did(tmp_path):
    """A selector counts only its campaign's points: by name, full id or id
    prefix, with the answer and the errors the filter over
    ``campaigns()`` gave."""
    store_path = tmp_path / "store.sqlite"
    with CampaignStore(store_path) as store:
        with pytest.raises(ConfigurationError, match="holds no campaigns"):
            store.find_campaign("grid")
        for name, seeds in (("grid", [0, 1]), ("grid", [0, 1, 2]), ("other", [3])):
            spec = CampaignSpec.from_dict(campaign_dict(name, {"seed": seeds}))
            store.register_campaign(spec, spec.expand())
        campaigns = store.campaigns()
        assert sorted(row["num_points"] for row in campaigns) == [1, 2, 3]
        for row in campaigns:
            for selector in (row["campaign_id"], row["campaign_id"][:12]):
                assert store.find_campaign(selector) == row
        assert store.find_campaign("other") == next(
            row for row in campaigns if row["name"] == "other"
        )
        for selector, error in (
            (None, "holds 3 campaigns"),
            ("grid", "ambiguous"),
            ("", "ambiguous"),
            ("nothing", "no campaign matches"),
        ):
            with pytest.raises(ConfigurationError, match=error):
                store.find_campaign(selector)


def test_store_points_filters_and_paginates_sql_side(tmp_path):
    """``points(status=, limit=, offset=)`` slices in SQL (service satellite)."""
    spec = CampaignSpec.from_dict(campaign_dict())
    store_path = tmp_path / "store.sqlite"
    run_campaign(spec, store_path=store_path, max_points=3)
    with CampaignStore(store_path) as store:
        campaign_id = store.find_campaign()["campaign_id"]
        # One pending point left; mark it failed to get all three statuses...
        pending = store.points(campaign_id, status="pending")
        assert len(pending) == 1
        all_points = spec.expand()
        failed = next(
            point
            for point in all_points
            if point.config_hash == pending[0]["config_hash"]
        )
        store.record_chunk(
            campaign_id, [PointRecord(point=failed, error="boom", elapsed_s=0.0)]
        )

        done = store.points(campaign_id, status="done")
        assert [row["status"] for row in done] == ["done"] * 3
        assert [row["point_index"] for row in done] == sorted(
            row["point_index"] for row in done
        )
        errors = store.points(campaign_id, status="error")
        assert len(errors) == 1 and errors[0]["error"] == "boom"
        assert store.points(campaign_id, status="pending") == []

        # Pagination composes with the filter, in grid order.
        assert [row["point_index"] for row in store.points(campaign_id, limit=2)] == [
            row["point_index"] for row in store.points(campaign_id)[:2]
        ]
        page = store.points(campaign_id, status="done", limit=1, offset=1)
        assert [row["point_index"] for row in page] == [done[1]["point_index"]]
        # offset without limit walks to the end; limit=0 is an empty page.
        assert len(store.points(campaign_id, offset=3)) == 1
        assert store.points(campaign_id, limit=0) == []
        assert len(store.points(campaign_id, offset=99)) == 0

        # Decoded columns survive the filtered path.
        assert all("axes" in row and "spec" in row for row in done)

        for bad in (
            dict(status="bogus"),
            dict(limit=-1),
            dict(offset=-1),
        ):
            with pytest.raises(ConfigurationError):
                store.points(campaign_id, **bad)


def test_store_adopts_results_shared_by_config_hash(tmp_path):
    store_path = tmp_path / "store.sqlite"
    small = CampaignSpec.from_dict(campaign_dict("shared", axes={"seed": [0, 1]}))
    run_campaign(small, store_path=store_path)
    # Same campaign name, superset axis: the two overlapping points keep the
    # same point names, hence the same config hashes -> adopted, not re-run.
    bigger = CampaignSpec.from_dict(campaign_dict("shared", axes={"seed": [0, 1, 2]}))
    summary = run_campaign(bigger, store_path=store_path)
    assert summary.total_points == 3
    assert summary.adopted == 2
    assert summary.completed_before == 2
    assert summary.executed == 1
    assert summary.remaining == 0


def test_store_rejects_non_sqlite_file(tmp_path):
    not_a_store = tmp_path / "campaign.json"
    not_a_store.write_text(json.dumps(campaign_dict()))
    with pytest.raises(ConfigurationError, match="not a SQLite campaign store"):
        CampaignStore(not_a_store)


def test_store_rejects_unknown_schema_version(tmp_path):
    store_path = tmp_path / "old.sqlite"
    connection = sqlite3.connect(store_path)
    connection.execute("PRAGMA user_version = 99")
    connection.commit()
    connection.close()
    with pytest.raises(ConfigurationError, match="schema version"):
        CampaignStore(store_path)


def test_store_loads_rows_missing_post_events_fields(tmp_path):
    """Older stored rows (pre-events schema) must still parse (satellite)."""
    store_path = tmp_path / "store.sqlite"
    legacy_row = {
        "name": "legacy",
        "config_hash": "cafe" * 16,
        "times_s": [0.0, 900.0],
        "power_percent": {"response": [40.0, 50.0]},
        "recomputations": {"response": 1},
        # No events / compute_seconds / violations / reaction / spec fields.
    }
    with CampaignStore(store_path) as store:
        store._connection.execute(
            "INSERT INTO results (config_hash, result_json, created_at) "
            "VALUES (?, ?, ?)",
            (legacy_row["config_hash"], json.dumps(legacy_row), "2026-01-01"),
        )
        store._connection.commit()
        result = store.result(legacy_row["config_hash"])
    assert result.columns["power_percent"] == {"response": [40.0, 50.0]}
    assert result.events == []
    assert result.columns["compute_seconds"] == {}
    assert result.columns["violations"] == {}
    assert result.reaction == {}


# --------------------------------------------------------------------- #
# Execution, resume and error isolation
# --------------------------------------------------------------------- #
def test_rerun_of_completed_campaign_executes_nothing(tmp_path):
    spec = CampaignSpec.from_dict(campaign_dict())
    store_path = tmp_path / "store.sqlite"
    first = run_campaign(spec, store_path=store_path)
    assert first.executed == 4
    second = run_campaign(spec, store_path=store_path)
    assert second.executed == 0
    assert second.completed_before == 4
    assert second.remaining == 0


def test_max_points_zero_reports_whole_grid_as_remaining(tmp_path):
    spec = CampaignSpec.from_dict(campaign_dict())
    summary = run_campaign(spec, store_path=tmp_path / "store.sqlite", max_points=0)
    assert summary.executed == 0
    assert summary.remaining == summary.total_points == 4


def test_interrupted_campaign_resumes_and_matches_clean_serial_run(tmp_path):
    """The resume guarantee: kill after N points, re-run, stores match."""
    spec = CampaignSpec.from_dict(eight_point_campaign())
    clean_path = tmp_path / "clean.sqlite"
    clean = run_campaign(spec, store_path=clean_path)
    assert (clean.executed, clean.failed) == (8, 0)

    resumed_path = tmp_path / "resumed.sqlite"
    interrupted = run_campaign(spec, store_path=resumed_path, max_points=3)
    assert interrupted.executed == 3
    assert interrupted.remaining == 5
    resumed = run_campaign(spec, store_path=resumed_path)
    assert resumed.completed_before == 3  # the interrupted run's work survived
    assert resumed.executed == 5  # only the missing points ran
    assert resumed.remaining == 0

    with CampaignStore(clean_path) as a, CampaignStore(resumed_path) as b:
        dump_clean = a.canonical_dump(clean.campaign_id)
        dump_resumed = b.canonical_dump(resumed.campaign_id)
    assert dump_resumed == dump_clean  # bit-for-bit, modulo wall-clock fields


def test_failing_point_is_recorded_not_raised(tmp_path):
    bad_traffic = {
        "name": "uniform",
        # flow_bps AND total_traffic_bps: the builder raises at build time.
        "params": {
            "num_pairs": 6,
            "num_endpoints": 5,
            "flow_bps": 1e8,
            "total_traffic_bps": 1e9,
            "seed": 0,
        },
    }
    spec = CampaignSpec.from_dict(
        campaign_dict(
            "faulty",
            axes={"traffic": [base_scenario()["traffic"], bad_traffic]},
        )
    )
    store_path = tmp_path / "store.sqlite"
    summary = run_campaign(spec, store_path=store_path)
    assert summary.executed == 2
    assert summary.failed == 1
    assert summary.remaining == 1
    assert "flow_bps" in summary.errors[0]
    with CampaignStore(store_path) as store:
        counts = store.status_counts(summary.campaign_id)
        assert counts["done"] == 1 and counts["error"] == 1
        errored = [
            point
            for point in store.points(summary.campaign_id)
            if point["status"] == "error"
        ]
        assert "ConfigurationError" in errored[0]["error"]  # full traceback kept
    # Re-running retries the failed point (and only it).
    retry = run_campaign(spec, store_path=store_path)
    assert retry.executed == 1
    assert retry.failed == 1


def test_an_unknown_scheme_parameter_is_an_error_point(tmp_path):
    """Each unknown parameter fails its own point, beside a point that runs."""
    from test_scenario import UNKNOWN_SCHEME_PARAMS

    schemes = [[{"name": name, "params": {key: 1}}] for name, key in UNKNOWN_SCHEME_PARAMS]
    spec = CampaignSpec.from_dict(campaign_dict("unknown", axes={"schemes": [*schemes, ["ecmp"]]}))
    summary = run_campaign(spec, store_path=tmp_path / "store.sqlite")
    assert (summary.executed, summary.failed) == (len(schemes) + 1, len(schemes))
    with CampaignStore(tmp_path / "store.sqlite") as store:
        errors = [point["error"] for point in store.points(summary.campaign_id, status="error")]
    for name, key in UNKNOWN_SCHEME_PARAMS:
        complaint = f"ConfigurationError: unknown {name} scheme parameters ['{key}']"
        assert any(complaint in error for error in errors), complaint


# --------------------------------------------------------------------- #
# Report layer
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    """One completed 4-point campaign and its metric rows."""
    store_path = tmp_path_factory.mktemp("campaign") / "store.sqlite"
    spec = CampaignSpec.from_dict(campaign_dict())
    summary = run_campaign(spec, store_path=store_path)
    with CampaignStore(store_path) as store:
        rows = store.metric_rows(summary.campaign_id)
    return store_path, summary, rows


def test_filter_rows_by_axis_and_scheme(reported):
    _store_path, _summary, rows = reported
    assert len(filter_rows(rows, {"scheme": "response"})) == 4
    assert len(filter_rows(rows, parse_filters(["seed=0"]))) == 4
    assert len(filter_rows(rows, {"scheme": "response", "seed": "1"})) == 2
    with pytest.raises(ConfigurationError, match="unknown filter"):
        filter_rows(rows, {"nope": "1"})
    with pytest.raises(ConfigurationError):
        parse_filters(["no-equals-sign"])


def test_report_rejects_an_unknown_group_by_column(reported, capsys):
    """A misspelt group-by column is an error naming the row columns, not
    one ``None`` group holding every row."""
    store_path, _summary, rows = reported
    with pytest.raises(ConfigurationError, match=r"unknown group-by column\(s\) \['topolgy'\]"):
        summarise(rows, group_by=("topolgy",))
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign-report", "--store", str(store_path), "--group-by", "topolgy"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown group-by column(s) ['topolgy']" in err and "'scheme'" in err


def test_summarise_groups_and_percentiles(reported):
    _store_path, _summary, rows = reported
    by_scheme = summarise(rows, metric="mean_power_percent", group_by=("scheme",))
    assert sorted(record["scheme"] for record in by_scheme) == ["ecmp", "response"]
    assert all(record["count"] == 4 for record in by_scheme)
    response = next(r for r in by_scheme if r["scheme"] == "response")
    ecmp = next(r for r in by_scheme if r["scheme"] == "ecmp")
    assert response["mean"] < ecmp["mean"]  # REsPoNse saves more power
    by_seed = summarise(rows, group_by=("scheme", "seed"))
    assert len(by_seed) == 4 and all(record["count"] == 2 for record in by_seed)


def test_dominance_and_deviation_hooks(reported):
    _store_path, _summary, rows = reported
    dominance = scheme_dominance(rows, metric="mean_power_percent")
    assert dominance["points"] == 4
    assert dominance["dominant_scheme"] == "response"
    assert dominance["winners"]["response"] == 1.0
    assert dominance["dominant_fraction"] == 1.0
    assert dominance["num_winning_schemes"] == 1
    deviation = deviation_from_best(rows, metric="mean_power_percent")
    by_scheme = {record["scheme"]: record for record in deviation}
    assert by_scheme["response"]["max"] == 0.0  # the winner deviates by zero
    assert by_scheme["ecmp"]["min"] > 0.0
    # Savings flip the direction: higher is better, winner unchanged.
    savings = scheme_dominance(rows, metric="mean_savings_percent")
    assert savings["dominant_scheme"] == "response"


def test_report_exports_csv_json_table(reported):
    _store_path, _summary, rows = reported
    csv_text = rows_to_csv(rows)
    header = csv_text.splitlines()[0]
    assert "scheme" in header and "mean_power_percent" in header and "seed" in header
    assert len(csv_text.strip().splitlines()) == len(rows) + 1
    parsed = json.loads(rows_to_json(rows))
    assert len(parsed) == len(rows)
    table = format_table(summarise(rows))
    assert "scheme" in table and "response" in table
    assert format_table([]) == "(no rows)"


# --------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------- #
def test_cli_campaign_run_status_report(tmp_path, capsys):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign_dict("cli-grid")))
    store_path = tmp_path / "store.sqlite"

    # Bounded first slice, then a resuming completion.
    assert (
        main(
            [
                "run-campaign",
                "--spec",
                str(spec_path),
                "--store",
                str(store_path),
                "--max-points",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 executed" in out and "2 remaining" in out
    assert (
        main(["run-campaign", "--spec", str(spec_path), "--store", str(store_path)])
        == 0
    )
    out = capsys.readouterr().out
    assert "2 already done" in out and "0 remaining" in out

    assert main(["campaign-status", "--store", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "cli-grid" in out
    assert (
        main(
            ["campaign-status", "--store", str(store_path), "--campaign", "cli-grid"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("done") >= 4

    assert main(["campaign-report", "--store", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "dominance" in out and "response" in out and "deviation" in out

    report_path = tmp_path / "rows.csv"
    assert (
        main(
            [
                "campaign-report",
                "--store",
                str(store_path),
                "--format",
                "csv",
                "--output",
                str(report_path),
                "--filter",
                "scheme=response",
            ]
        )
        == 0
    )
    lines = report_path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + one row per point for one scheme
    assert all("response" in line for line in lines[1:])


def test_cli_campaign_json_summary_and_errors(tmp_path, capsys):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign_dict("json-grid", axes={"seed": [0]})))
    store_path = tmp_path / "store.sqlite"
    assert (
        main(
            [
                "run-campaign",
                "--spec",
                str(spec_path),
                "--store",
                str(store_path),
                "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_points"] == 1 and payload["executed"] == 1
    # A missing store is a CLI error — and the read-only commands must not
    # create an empty store file as a side effect (that would mask a
    # --store typo forever).
    missing = tmp_path / "missing.sqlite"
    with pytest.raises(SystemExit):
        main(["campaign-status", "--store", str(missing)])
    assert not missing.exists()
    with pytest.raises(SystemExit):
        main(["campaign-report", "--store", str(missing)])
    assert not missing.exists()
    # A typo'd --metric is an input error listing what was recorded,
    # not an empty report.
    with pytest.raises(SystemExit):
        main(
            [
                "campaign-report",
                "--store",
                str(store_path),
                "--metric",
                "mean_pwr_typo",
            ]
        )
    assert "mean_power_percent" in capsys.readouterr().err
    # Unknown campaign selectors list what is stored.
    with pytest.raises(SystemExit):
        main(["campaign-report", "--store", str(store_path), "--campaign", "nope"])
