"""Tests for the unified observability layer (spans, metrics, exposure).

The load-bearing guarantees pinned here:

* tracing is off by default and costs one module-global check per span;
* a traced run emits well-formed NDJSON whose parent links form a tree
  covering build → timeline → per-interval scheme steps;
* traced and untraced runs are **bit-identical** (results and campaign
  stores compare equal after stripping wall-clock fields);
* the metrics registry is safe under concurrent writers and renders
  valid Prometheus text;
* ``GET /metrics`` answers with zero read errors while a submitted
  campaign is actively draining the store;
* phase attribution is exclusive: the build/calibrate/solve/allocate
  buckets never double-count nested spans and overhead absorbs the rest.
"""

import json
import sqlite3
import threading

import numpy as np
import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.campaign.cli import campaign_command
from repro.campaign.store import STORE_SCHEMA_VERSION
from repro.experiments.runner import main as experiments_main
from repro.obs import metrics, trace
from repro.scenario.engine import run_scenario
from repro.simulator.fairness import Incidence, last_kernel_stats, max_min_fair_rates
from repro.traffic.scaling import calibration_cache_stats, clear_calibration_cache

from test_service import (
    base_scenario,
    campaign_dict,
    get_json,
    post_json,
    service,
    wait_for_job,
)


# --------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    trace.disable_tracing()
    yield
    trace.disable_tracing()


def small_scenario(name="obs-scenario", seed=0):
    spec = base_scenario()
    spec["name"] = name
    spec["traffic"]["params"]["seed"] = seed
    return spec


def strip_volatile(result_dict):
    """A result dict minus wall-clock fields (mirrors canonical_result_dict)."""
    from repro.campaign.store import canonical_result_dict

    return canonical_result_dict(result_dict)


# --------------------------------------------------------------------- #
# Spans and NDJSON sidecars
# --------------------------------------------------------------------- #
def test_tracing_disabled_by_default_and_spans_are_noops():
    assert not trace.tracing_enabled()
    span = trace.span("anything", key="value")
    assert span is trace.span("other")  # the shared no-op singleton
    with span as entered:
        entered.set(more="attrs")  # must not raise
    assert trace.current_span() is None


def test_traced_run_emits_wellformed_ndjson_span_tree(tmp_path, read_trace):
    path = tmp_path / "trace.ndjson"
    trace.configure_tracing(path)
    assert trace.tracing_enabled()
    # A 20-interval replay, so that "one step span per (scheme, interval)"
    # below is 2 x 20 spans and not 2.
    spec = small_scenario()
    spec["traffic"] = {
        "name": "gravity",
        "params": {
            "num_pairs": 6,
            "num_endpoints": 5,
            "seed": 0,
            "calibrate": True,
            "levels": [round(0.2 + 0.8 * index / 19, 4) for index in range(20)],
        },
    }
    result = run_scenario(spec)
    trace.disable_tracing()
    assert not trace.tracing_enabled()

    records = read_trace(path)
    assert records, "traced run emitted no spans"
    by_id = {}
    for record in records:
        # Well-formed: every record carries the span envelope.
        assert {"name", "span_id", "parent_id", "pid", "thread", "ts", "duration_s"} <= set(record)
        assert record["duration_s"] >= 0.0
        by_id[record["span_id"]] = record
    # Parent links form a tree rooted in this process's spans.
    for record in records:
        parent = record["parent_id"]
        assert parent is None or parent in by_id
    names = {record["name"] for record in records}
    assert {"scenario.build", "timeline.run", "scheme.start", "scheme.step"} <= names
    # Per-interval scheme steps: one scheme.step per (scheme, interval).
    steps = [r for r in records if r["name"] == "scheme.step"]
    assert sorted((r["attrs"]["scheme"], r["attrs"]["interval"]) for r in steps) == sorted(
        (scheme, interval)
        for scheme in ("response", "ecmp")
        for interval in range(len(result.times_s))
    )
    assert len(steps) == 40
    for step in steps:
        assert step["attrs"]["interval"] >= 0
        # Steps nest under the timeline.run span (directly or via a parent).
        ancestor = by_id.get(step["parent_id"])
        seen = set()
        while ancestor is not None and ancestor["span_id"] not in seen:
            seen.add(ancestor["span_id"])
            if ancestor["name"] == "timeline.run":
                break
            ancestor = by_id.get(ancestor["parent_id"])
        assert ancestor is not None and ancestor["name"] == "timeline.run"


def test_span_records_error_attribute_on_exception(tmp_path, read_trace):
    path = tmp_path / "err.ndjson"
    trace.configure_tracing(path)
    with pytest.raises(ValueError):
        with trace.span("failing.op"):
            raise ValueError("boom")
    trace.disable_tracing()
    [record] = read_trace(path)
    assert record["name"] == "failing.op"
    assert record["attrs"]["error"] == "ValueError"


def test_traced_run_is_bit_identical_to_untraced(tmp_path):
    spec = small_scenario("obs-identity")
    baseline = run_scenario(spec).to_dict()
    trace.configure_tracing(tmp_path / "identity.ndjson")
    traced = run_scenario(spec).to_dict()
    trace.disable_tracing()
    assert strip_volatile(traced) == strip_volatile(baseline)


# --------------------------------------------------------------------- #
# Phase attribution
# --------------------------------------------------------------------- #
def test_phase_collector_attributes_exclusively():
    collector = trace.PhaseCollector()
    with trace.collect(collector):
        run_scenario(small_scenario("obs-phases"))
    phases = collector.phases(elapsed_s=10.0)
    assert set(phases) == set(trace.PHASE_NAMES)
    assert all(value >= 0.0 for value in phases.values())
    # Exclusive attribution: the buckets plus overhead equal the elapsed
    # wall-clock exactly (overhead is the remainder by construction).
    assert sum(phases.values()) == pytest.approx(10.0)
    assert phases["solve"] > 0.0  # the response plan build is solve time


def test_phase_collector_without_elapsed_omits_overhead():
    collector = trace.PhaseCollector()
    with trace.collect(collector):
        with trace.span("scenario.build"):
            pass
    phases = collector.phases()
    assert "overhead" not in phases
    assert set(phases) == set(trace.PHASE_NAMES) - {"overhead"}


def test_kernel_stats_record_iterations_and_frozen_trace():
    demands = np.array([3e8, 3e8, 3e8])
    incidence = Incidence([np.array([0])] * 3, 1)
    capacity = np.array([6e8])
    collector = trace.SpanCollector()
    with trace.collect(collector):
        rates = max_min_fair_rates(demands, capacity, incidence)
    stats = last_kernel_stats()
    assert stats["iterations"] >= 1
    assert sum(stats["frozen_per_iteration"]) == len(demands)
    np.testing.assert_allclose(rates, 2e8)
    # Untraced: iterations still counted, frozen trace skipped.
    max_min_fair_rates(demands, capacity, incidence)
    stats = last_kernel_stats()
    assert stats["iterations"] >= 1
    assert "frozen_per_iteration" not in stats


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
def test_registry_counter_gauge_histogram_roundtrip():
    registry = metrics.MetricsRegistry()
    requests = registry.counter("t_requests_total", "Requests")
    requests.inc()
    requests.inc(2.0)
    assert requests.value == 3.0
    with pytest.raises(ValueError):
        requests.inc(-1.0)
    latency = registry.histogram("t_latency_seconds", "Latency", buckets=(0.1, 1.0))
    latency.observe(0.05)
    latency.observe(0.5)
    latency.observe(5.0)
    [sample] = latency.samples()
    assert sample["count"] == 3
    assert sample["buckets"]["0.1"] == 1
    assert sample["buckets"]["1"] == 2
    assert sample["buckets"]["+Inf"] == 3
    with pytest.raises(ValueError):
        registry.histogram("t_requests_total", "kind clash")
    text = metrics.render_snapshot(registry.snapshot())
    assert "# TYPE t_requests_total counter" in text
    assert "t_requests_total 3" in text
    assert 't_latency_seconds_bucket{le="+Inf"} 3' in text
    assert "t_latency_seconds_count 3" in text
    snapshot = registry.snapshot()
    assert snapshot["t_requests_total"]["type"] == "counter"


def test_registry_labelled_children_render_sorted():
    registry = metrics.MetricsRegistry()
    family = registry.counter("t_routed_total", "Routed requests")
    family.labels(route="/b", method="GET").inc()
    family.labels(method="GET", route="/a").inc(2.0)
    text = metrics.render_snapshot(registry.snapshot())
    assert 't_routed_total{method="GET",route="/a"} 2' in text
    assert text.index('route="/a"') < text.index('route="/b"')


def test_registry_is_thread_safe_under_concurrent_writers():
    registry = metrics.MetricsRegistry()
    counter = registry.counter("t_concurrent_total", "Concurrent increments")
    histogram = registry.histogram("t_concurrent_seconds", "Concurrent observes")
    threads = 8
    per_thread = 2000
    barrier = threading.Barrier(threads)

    def hammer(index):
        barrier.wait()
        for _ in range(per_thread):
            counter.inc()
            histogram.labels(worker=str(index % 2)).observe(0.01)

    workers = [
        threading.Thread(target=hammer, args=(index,)) for index in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert counter.value == threads * per_thread
    total = sum(sample["count"] for sample in histogram.samples())
    assert total == threads * per_thread


def test_calibration_cache_shim_counts_through_registry():
    clear_calibration_cache()
    assert calibration_cache_stats() == {"hits": 0, "misses": 0}
    spec = small_scenario("obs-calibrated")
    spec["traffic"] = {
        "name": "gravity",
        "params": {
            "num_pairs": 8,
            "num_endpoints": 5,
            "seed": 1,
            "calibrate": True,
            "levels": [0.5, 1.0],
        },
    }
    run_scenario(spec)
    first = calibration_cache_stats()
    assert first["misses"] >= 1
    run_scenario(spec)
    second = calibration_cache_stats()
    assert second["hits"] >= first["hits"] + 1
    assert second["misses"] == first["misses"]
    clear_calibration_cache()
    assert calibration_cache_stats() == {"hits": 0, "misses": 0}


# --------------------------------------------------------------------- #
# Campaign profiling and store schema
# --------------------------------------------------------------------- #
def test_profiled_campaign_persists_phases_and_stays_bit_identical(tmp_path):
    spec = CampaignSpec.from_dict(campaign_dict("obs-profile"))
    plain = tmp_path / "plain.sqlite"
    profiled = tmp_path / "profiled.sqlite"
    run_campaign(spec, store_path=plain)
    summary = run_campaign(spec, store_path=profiled, profile=True)
    assert summary.failed == 0
    with CampaignStore(profiled, read_only=True) as store:
        campaign = store.find_campaign()
        points = store.points(campaign["campaign_id"])
        assert points and all(
            set(point["phases"]) == set(trace.PHASE_NAMES) for point in points
        )
        totals = store.phase_totals(campaign["campaign_id"])
        assert totals["points"] == len(points)
        assert totals["totals"]["solve"] > 0.0
        profiled_dump = store.canonical_dump(campaign["campaign_id"])
    with CampaignStore(plain, read_only=True) as store:
        campaign = store.find_campaign()
        plain_dump = store.canonical_dump(campaign["campaign_id"])
        assert all(
            point["phases"] is None
            for point in store.points(campaign["campaign_id"])
        )
    assert profiled_dump == plain_dump


def test_v2_store_migrates_to_v3_in_place(tmp_path):
    path = tmp_path / "old.sqlite"
    spec = CampaignSpec.from_dict(campaign_dict("obs-migrate"))
    run_campaign(spec, store_path=path, max_points=1)
    # Rewind the store to schema v2: drop the profile column.
    connection = sqlite3.connect(path)
    connection.execute("ALTER TABLE points DROP COLUMN phases_json")
    connection.execute("PRAGMA user_version = 2")
    connection.close()
    # A read-only open tolerates the old version (no phase data to report).
    with CampaignStore(path, read_only=True) as store:
        campaign = store.find_campaign()
        assert store.phase_totals(campaign["campaign_id"]) == {
            "points": 0,
            "totals": {},
        }
    # A writable open migrates in place and the campaign resumes.
    summary = run_campaign(spec, store_path=path, profile=True)
    assert summary.failed == 0 and summary.remaining == 0
    connection = sqlite3.connect(path)
    version = connection.execute("PRAGMA user_version").fetchone()[0]
    connection.close()
    assert version == STORE_SCHEMA_VERSION
    with CampaignStore(path, read_only=True) as store:
        campaign = store.find_campaign()
        executed = [
            point
            for point in store.points(campaign["campaign_id"])
            if point["phases"] is not None
        ]
        assert len(executed) == summary.executed


def test_campaign_status_json_reports_throughput_and_eta(tmp_path, capsys):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign_dict("obs-eta")))
    store_path = tmp_path / "eta.sqlite"
    # Register without executing: throughput must be None-safe.
    campaign_command(
        "run-campaign",
        [
            "--spec", str(spec_path),
            "--store", str(store_path),
            "--max-points", "0",
        ],
    )
    capsys.readouterr()
    campaign_command(
        "campaign-status", ["--store", str(store_path), "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    [row] = payload["campaigns"]
    assert row["points_per_second"] is None
    assert row["eta_seconds"] is None
    # Execute part of the grid: ETA extrapolates from done points.
    campaign_command(
        "run-campaign",
        [
            "--spec", str(spec_path),
            "--store", str(store_path),
            "--max-points", "2",
        ],
    )
    capsys.readouterr()
    campaign_command(
        "campaign-status", ["--store", str(store_path), "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    [row] = payload["campaigns"]
    assert row["points_per_second"] > 0.0
    assert row["eta_seconds"] > 0.0
    # Finish the grid: ETA collapses to zero.
    campaign_command(
        "run-campaign", ["--spec", str(spec_path), "--store", str(store_path)]
    )
    capsys.readouterr()
    campaign_command(
        "campaign-status", ["--store", str(store_path), "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    [row] = payload["campaigns"]
    assert row["eta_seconds"] == 0.0


def test_campaign_report_timings_renders_phase_table(tmp_path, capsys):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign_dict("obs-timings")))
    store_path = tmp_path / "timings.sqlite"
    campaign_command(
        "run-campaign",
        ["--spec", str(spec_path), "--store", str(store_path), "--profile"],
    )
    capsys.readouterr()
    campaign_command(
        "campaign-report", ["--store", str(store_path), "--timings"]
    )
    text = capsys.readouterr().out
    for phase in trace.PHASE_NAMES:
        assert phase in text
    campaign_command(
        "campaign-report",
        ["--store", str(store_path), "--timings", "--format", "json"],
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["profiled_points"] == 4
    assert set(payload["totals_s"]) == set(trace.PHASE_NAMES)


def test_run_scenario_cli_trace_and_profile(tmp_path, capsys, read_trace):
    trace_path = tmp_path / "cli.ndjson"
    code = experiments_main(
        [
            "run-scenario",
            "--topology", "geant",
            "--traffic", "uniform",
            "--set", "traffic.num_pairs=6",
            "--set", "traffic.num_endpoints=5",
            "--set", "traffic.flow_bps=1e8",
            "--set", "traffic.seed=0",
            "--power", "cisco",
            "--scheme", "response",
            "--scheme", "ecmp",
            "--profile",
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "phase timings:" in out
    for phase in trace.PHASE_NAMES:
        assert phase in out
    records = read_trace(trace_path)
    assert {r["name"] for r in records} >= {"scenario.build", "timeline.run"}
    assert not trace.tracing_enabled()  # the CLI cleaned up after itself


# --------------------------------------------------------------------- #
# Service exposure
# --------------------------------------------------------------------- #
def scrape_metrics(server):
    import urllib.request

    with urllib.request.urlopen(server.url + "/metrics", timeout=60) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode("utf-8")


def test_metrics_endpoint_serves_prometheus_and_json(tmp_path):
    with service(tmp_path) as server:
        get_json(server, "/healthz")
        text = scrape_metrics(server)
        assert "# TYPE repro_service_requests_total counter" in text
        assert 'route="/healthz"' in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        status, payload = get_json(server, "/metrics?format=json")
        assert status == 200
        families = payload["metrics"]
        assert "repro_service_requests_total" in families
        assert families["repro_service_requests_total"]["type"] == "counter"
        # The endpoint index advertises the scrape route.
        _, index = get_json(server, "/")
        assert "GET /metrics" in index["endpoints"]


def test_metrics_scrape_survives_live_campaign_drain(tmp_path):
    with service(tmp_path) as server:
        status, submitted = post_json(
            server, "/campaigns", campaign_dict("obs-drain")
        )
        assert status == 202
        campaign_id = submitted["campaign_id"]
        errors = []
        scrapes = []
        done = threading.Event()

        def scraper():
            while not done.is_set():
                try:
                    scrapes.append(scrape_metrics(server))
                except Exception as error:  # noqa: BLE001 - the assertion
                    errors.append(error)

        thread = threading.Thread(target=scraper)
        thread.start()
        try:
            final = wait_for_job(server, campaign_id)
        finally:
            done.set()
            thread.join(timeout=30)
        assert errors == []
        assert scrapes, "no scrape completed during the drain"
        assert final["counts"]["done"] == final["counts"]["total"]
        # Route labels stay template-shaped: ids never leak into labels.
        text = scrape_metrics(server)
        assert 'route="/campaigns/{id}/status"' in text
        assert campaign_id[:12] not in text
