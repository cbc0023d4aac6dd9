"""Tests for concurrent campaign execution: store locking, leases, workers.

The store-level regressions pinned here are the PR's bugfixes: readers and
second writers must wait (or proceed) instead of raising ``database is
locked``, a chunk persists atomically or not at all, and an ``error`` point
that later succeeds transitions to ``done`` exactly once.  On top of the
hardened store, the lease protocol is unit-tested with an injected clock
and the multi-worker drain is property-tested for bit-identity against a
serial run — including after a simulated worker crash.
"""

import json
import sqlite3
import threading
import time
from pathlib import Path

import pytest

import repro.campaign.run as campaign_run
from repro.campaign import CampaignSpec, CampaignStore, PointRecord, run_campaign
from repro.campaign.run import claim_size, prepare_campaign
from repro.campaign.store import STORE_SCHEMA_VERSION
from repro.exceptions import ConfigurationError
from repro.experiments.runner import main
from repro.obs.trace import PHASE_NAMES
from repro.outcome import IntervalOutcome
from repro.scenario.registry import component_names, register, resolve
from repro.scenario.timeline import SchemeRuntime


# --------------------------------------------------------------------- #
# Fixtures: cheap scenario stacks (mirrors tests/test_campaign.py)
# --------------------------------------------------------------------- #
def base_scenario():
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


def twentyfour_point_campaign(name="grid24"):
    """A 24-point grid of cheap points (6 seeds x 2 rates x 2 SLOs)."""
    return campaign_dict(
        name,
        axes={
            "seed": [0, 1, 2, 3, 4, 5],
            "set": {
                "traffic.flow_bps": [1e8, 1.5e8],
                "scenario.utilisation_threshold": [0.85, 0.9],
            },
        },
    )


def _failed(point, error):
    return PointRecord(point=point, error=error, elapsed_s=0.1)


def registered_store(tmp_path, spec_dict, filename="store.sqlite"):
    """A store with the campaign registered but no point executed."""
    spec = CampaignSpec.from_dict(spec_dict)
    points = spec.expand()
    store_path = tmp_path / filename
    with CampaignStore(store_path) as store:
        campaign_id = store.register_campaign(spec, points)
    return store_path, campaign_id, points


# A deliberately flaky traffic workload: the first build attempt (per
# marker file) raises, every later one delegates to the real ``uniform``
# builder.  Registered at import so serial in-process campaign execution
# (and forked workers) can resolve it by name.
if "flaky-uniform" not in component_names("traffic"):

    @register("traffic", "flaky-uniform")
    def _flaky_uniform(topology, marker_path="", **params):
        """Uniform traffic that fails once per marker file, then succeeds."""
        try:
            # Exclusive create: of two fleet workers building at the same
            # moment exactly one makes the marker, so exactly one fails.
            Path(marker_path).open("x").close()
        except FileExistsError:
            return resolve("traffic", "uniform")(topology, **params)
        raise RuntimeError("deliberate first-attempt failure")


# --------------------------------------------------------------------- #
# Store hardening: WAL, busy timeout, read-only connections
# --------------------------------------------------------------------- #
def test_store_opens_in_wal_mode_with_busy_timeout(tmp_path):
    with CampaignStore(tmp_path / "store.sqlite") as store:
        journal = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
        timeout_ms = store._connection.execute("PRAGMA busy_timeout").fetchone()[0]
        assert journal == "wal"
        assert timeout_ms >= 1000


def test_status_and_report_read_during_in_progress_chunked_write(tmp_path):
    """Regression: a reader must not raise while a chunk write is open."""
    store_path = tmp_path / "store.sqlite"
    spec = CampaignSpec.from_dict(campaign_dict())
    summary = run_campaign(spec, store_path=store_path, max_points=1)
    with CampaignStore(store_path) as writer:
        # Hold an open write transaction with rows already written — the
        # exact state a second process sees mid-chunk.
        writer._connection.execute("BEGIN IMMEDIATE")
        writer._connection.execute(
            "INSERT OR REPLACE INTO results (config_hash, result_json, created_at) "
            "VALUES ('feed' || 'beef', '{}', '2026-01-01')"
        )
        try:
            with CampaignStore(store_path, read_only=True) as reader:
                campaigns = reader.campaigns()
                assert campaigns[0]["done"] == 1
                counts = reader.status_counts(summary.campaign_id)
                assert counts["done"] == 1
                assert reader.metric_rows(summary.campaign_id)
                dump = reader.canonical_dump(summary.campaign_id)
                # Uncommitted rows of the in-flight chunk stay invisible.
                assert "feedbeef" not in dump["results"]
            # The CLI read paths go through the same read-only connection.
            assert main(["campaign-status", "--store", str(store_path)]) == 0
            assert main(["campaign-report", "--store", str(store_path)]) == 0
        finally:
            writer._connection.execute("ROLLBACK")


def test_second_writer_waits_for_lock_instead_of_erroring(tmp_path):
    """Regression: concurrent writers queue on the busy timeout."""
    store_path = tmp_path / "store.sqlite"
    spec = CampaignSpec.from_dict(campaign_dict())
    points = spec.expand()
    with CampaignStore(store_path) as store:
        campaign_id = store.register_campaign(spec, points)

    release = threading.Event()
    holder_ready = threading.Event()

    def hold_write_lock():
        connection = sqlite3.connect(str(store_path))
        connection.execute("PRAGMA busy_timeout = 5000")
        connection.execute("BEGIN IMMEDIATE")
        holder_ready.set()
        release.wait(timeout=10)
        connection.execute("COMMIT")
        connection.close()

    holder = threading.Thread(target=hold_write_lock)
    holder.start()
    try:
        assert holder_ready.wait(timeout=10)
        timer = threading.Timer(0.3, release.set)
        timer.start()
        # The write starts while the lock is held and must simply wait.
        with CampaignStore(store_path) as store:
            store.record_chunk(campaign_id, [_failed(points[0], "boom")])
            assert store.status_counts(campaign_id)["error"] == 1
        timer.cancel()
    finally:
        release.set()
        holder.join(timeout=10)


def test_read_only_store_refuses_writes_and_missing_files(tmp_path):
    store_path = tmp_path / "store.sqlite"
    spec = CampaignSpec.from_dict(campaign_dict())
    points = spec.expand()
    with CampaignStore(store_path) as store:
        campaign_id = store.register_campaign(spec, points)
    with CampaignStore(store_path, read_only=True) as reader:
        with pytest.raises(ConfigurationError, match="read-only"):
            reader.record_chunk(campaign_id, [_failed(points[0], "x")])
        with pytest.raises(ConfigurationError, match="read-only"):
            reader.claim_points(campaign_id, "w", 1, 60.0)
    with pytest.raises(ConfigurationError, match="does not exist"):
        CampaignStore(tmp_path / "missing.sqlite", read_only=True)


def test_v1_store_migrates_to_lease_schema(tmp_path):
    """A pre-lease (schema v1) store is migrated in place, data intact."""
    store_path = tmp_path / "old.sqlite"
    connection = sqlite3.connect(store_path)
    connection.executescript(
        """
        CREATE TABLE campaigns (
            campaign_id TEXT PRIMARY KEY, name TEXT NOT NULL,
            spec_json TEXT NOT NULL, num_points INTEGER NOT NULL,
            created_at TEXT NOT NULL
        );
        CREATE TABLE points (
            campaign_id TEXT NOT NULL, config_hash TEXT NOT NULL,
            point_index INTEGER NOT NULL, name TEXT NOT NULL,
            axes_json TEXT NOT NULL, spec_json TEXT NOT NULL,
            status TEXT NOT NULL DEFAULT 'pending', error TEXT,
            elapsed_s REAL, completed_at TEXT,
            PRIMARY KEY (campaign_id, config_hash)
        );
        CREATE TABLE results (
            config_hash TEXT PRIMARY KEY, result_json TEXT NOT NULL,
            created_at TEXT NOT NULL
        );
        CREATE TABLE metrics (
            config_hash TEXT NOT NULL, scheme TEXT NOT NULL,
            metric TEXT NOT NULL, value REAL,
            PRIMARY KEY (config_hash, scheme, metric)
        );
        INSERT INTO campaigns VALUES ('cid', 'legacy', '{}', 1, '2026-01-01');
        INSERT INTO points (campaign_id, config_hash, point_index, name,
                            axes_json, spec_json)
        VALUES ('cid', 'hash0', 0, 'legacy/p0', '{}', '{}');
        PRAGMA user_version = 1;
        """
    )
    connection.commit()
    connection.close()
    with CampaignStore(store_path) as store:
        version = store._connection.execute("PRAGMA user_version").fetchone()[0]
        assert version == STORE_SCHEMA_VERSION
        (point,) = store.points("cid")
        assert (point["config_hash"], point["status"]) == ("hash0", "pending")
        # The migrated store speaks the lease protocol.
        assert store.claim_points("cid", "w1", 5, 60.0) == ["hash0"]
        assert store.active_leases("cid")[0]["worker"] == "w1"


# --------------------------------------------------------------------- #
# Lease protocol (injected clock — fully deterministic)
# --------------------------------------------------------------------- #
def test_v1_store_migration_survives_concurrent_opens(tmp_path):
    """Regression: racing writable opens of a v1 store migrate it once.

    The loser of the write-lock race must re-read ``user_version`` inside
    its transaction and skip the ALTERs instead of crashing on
    ``duplicate column name``.
    """
    store_path = tmp_path / "old.sqlite"
    connection = sqlite3.connect(store_path)
    connection.executescript(
        """
        CREATE TABLE campaigns (campaign_id TEXT PRIMARY KEY, name TEXT,
            spec_json TEXT, num_points INTEGER, created_at TEXT);
        CREATE TABLE points (campaign_id TEXT, config_hash TEXT,
            point_index INTEGER, name TEXT, axes_json TEXT, spec_json TEXT,
            status TEXT DEFAULT 'pending', error TEXT, elapsed_s REAL,
            completed_at TEXT, PRIMARY KEY (campaign_id, config_hash));
        CREATE TABLE results (config_hash TEXT PRIMARY KEY,
            result_json TEXT, created_at TEXT);
        CREATE TABLE metrics (config_hash TEXT, scheme TEXT, metric TEXT,
            value REAL, PRIMARY KEY (config_hash, scheme, metric));
        PRAGMA user_version = 1;
        """
    )
    connection.commit()
    connection.close()

    barrier = threading.Barrier(4)
    failures = []

    def open_and_migrate():
        barrier.wait(timeout=10)
        try:
            with CampaignStore(store_path) as store:
                version = store._connection.execute(
                    "PRAGMA user_version"
                ).fetchone()[0]
                assert version == STORE_SCHEMA_VERSION
        except BaseException as error:  # noqa: BLE001 - collected for assert
            failures.append(error)

    threads = [threading.Thread(target=open_and_migrate) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert failures == []


def test_claim_renew_expire_and_release(tmp_path):
    store_path, campaign_id, points = registered_store(
        tmp_path, campaign_dict(axes={"seed": [0, 1, 2, 3]})
    )
    hashes = [point.config_hash for point in points]
    with CampaignStore(store_path) as store:
        # Claims follow grid order and never overlap.
        first = store.claim_points(campaign_id, "w1", 2, 10.0, now=1000.0)
        assert first == hashes[:2]
        second = store.claim_points(campaign_id, "w2", 10, 10.0, now=1000.0)
        assert second == hashes[2:]
        assert store.claim_points(campaign_id, "w3", 1, 10.0, now=1005.0) == []
        # w1 heartbeats; w2 goes silent and expires at t=1010.
        assert store.renew_leases(campaign_id, "w1", 10.0, now=1008.0) == 2
        reclaimed = store.claim_points(campaign_id, "w3", 10, 10.0, now=1012.0)
        assert reclaimed == hashes[2:]  # w2's expired points, not w1's
        leases = store.active_leases(campaign_id, now=1012.0)
        assert {lease["worker"]: lease["points"] for lease in leases} == {
            "w1": 2,
            "w3": 2,
        }
        # Explicit release makes points claimable immediately.
        assert store.release_leases(campaign_id, "w3") == 2
        assert store.claim_points(campaign_id, "w4", 10, 10.0, now=1012.0) == hashes[2:]
        # Recording an outcome clears the lease and removes the point from
        # every future claim (status is no longer pending).
        store.record_chunk(campaign_id, [_failed(points[0], "boom")])
        assert store.renew_leases(campaign_id, "w1", 10.0, now=1013.0) == 1
        # Far in the future every lease has expired: everything pending is
        # claimable again — but never the failed (error) point.
        assert store.claim_points(campaign_id, "w5", 10, 10.0, now=2000.0) == hashes[1:]


def test_claim_points_limit_and_validation(tmp_path):
    store_path, campaign_id, points = registered_store(tmp_path, campaign_dict())
    with CampaignStore(store_path) as store:
        assert store.claim_points(campaign_id, "w1", 0, 10.0, now=0.0) == []
        assert len(store.claim_points(campaign_id, "w1", 3, 10.0, now=0.0)) == 3


def test_default_claim_size_follows_what_the_launcher_knows(tmp_path, monkeypatch):
    # A lone drain claims everything pending; a known fleet splits it evenly.
    assert claim_size(24, workers=1) == 24
    assert claim_size(24, workers=2) == 12
    assert claim_size(25, workers=2) == 13  # ceil, so one round covers the grid
    assert claim_size(2, workers=4) == 1
    assert claim_size(0, workers=3) == 1
    # A joiner under its own id cannot know the fleet: one point per claim.
    assert claim_size(24, workers=None) == 1
    # chunk_size is the durability/memory bound and always wins.
    assert claim_size(24, workers=1, chunk_size=5) == 5
    assert claim_size(24, workers=4, chunk_size=5) == 5
    assert claim_size(24, workers=None, chunk_size=5) == 5

    # The prepare step applies it to what is pending *now*...
    store_path = tmp_path / "store.sqlite"
    assert prepare_campaign(campaign_dict(), store_path).claim_size == 4
    assert prepare_campaign(campaign_dict(), store_path, workers=3).claim_size == 2
    assert prepare_campaign(campaign_dict(), store_path, worker_id="w").claim_size == 1
    # ...and a max_points budget still caps every claim of the drain.
    limits = []
    real_claim = CampaignStore.claim_points

    def recording_claim(self, campaign_id, worker_id, limit, lease_seconds, now=None):
        limits.append(limit)
        return real_claim(self, campaign_id, worker_id, limit, lease_seconds, now)

    monkeypatch.setattr(CampaignStore, "claim_points", recording_claim)
    bounded = run_campaign(campaign_dict(), store_path=store_path, max_points=3)
    assert bounded.executed == 3 and limits == [3]
    assert prepare_campaign(campaign_dict(), store_path).claim_size == 1  # 1 left
    limits.clear()
    sliced = run_campaign(
        campaign_dict("sliced"), store_path=store_path, chunk_size=2, max_points=3
    )
    assert sliced.executed == 3 and limits == [2, 1]


# --------------------------------------------------------------------- #
# Chunk atomicity (fault injection)
# --------------------------------------------------------------------- #
class _ExplodingResult:
    """Stands in for a ScenarioResult whose persist dies mid-chunk."""

    def to_dict(self):
        raise KeyboardInterrupt("writer killed between rows")

    def headline_metrics(self):  # pragma: no cover - never reached
        return {}


def test_interrupted_chunk_persist_leaves_no_partial_rows(tmp_path):
    """Regression: a kill mid-chunk must roll the whole chunk back."""
    store_path, campaign_id, points = registered_store(tmp_path, campaign_dict())
    good = run_campaign(
        CampaignSpec.from_dict(campaign_dict()),
        store_path=tmp_path / "donor.sqlite",
        max_points=1,
    )
    with CampaignStore(tmp_path / "donor.sqlite") as donor:
        real_result = donor.result(points[0].config_hash)
    assert good.executed == 1 and real_result is not None

    with CampaignStore(store_path) as store:
        records = [
            PointRecord(point=points[0], result=real_result, elapsed_s=0.1),
            PointRecord(point=points[1], result=_ExplodingResult(), elapsed_s=0.1),
        ]
        with pytest.raises(KeyboardInterrupt):
            store.record_chunk(campaign_id, records)
        # Nothing of the chunk may have landed: not the first (valid) row,
        # not its metrics, not the status flips.
        counts = store.status_counts(campaign_id)
        assert counts == {"done": 0, "error": 0, "pending": 4, "total": 4}
        assert store.result(points[0].config_hash) is None
        assert store.metric_rows(campaign_id) == []
        # The store remains usable: the same chunk minus the poison pill
        # commits cleanly afterwards.
        store.record_chunk(
            campaign_id, [PointRecord(point=points[0], result=real_result)]
        )
        assert store.status_counts(campaign_id)["done"] == 1


def test_failed_chunk_write_releases_worker_leases(tmp_path, monkeypatch):
    """A worker interrupted mid-claim hands its leases straight back."""
    spec_dict = campaign_dict()
    store_path, campaign_id, points = registered_store(tmp_path, spec_dict)

    def kill_execution(*_args, **_kwargs):
        raise KeyboardInterrupt("worker killed mid-claim")

    monkeypatch.setattr(campaign_run, "_run_group", kill_execution)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            spec_dict,
            store_path=store_path,
            worker_id="doomed",
            chunk_size=2,
        )
    with CampaignStore(store_path) as store:
        assert store.active_leases(campaign_id) == []
        counts = store.status_counts(campaign_id)
        assert counts["pending"] == 4 and counts["done"] == 0


# --------------------------------------------------------------------- #
# Error -> done transitions across invocations (flaky point)
# --------------------------------------------------------------------- #
def flaky_campaign(tmp_path, name):
    base = base_scenario()
    base["traffic"] = {
        "name": "flaky-uniform",
        "params": {
            "marker_path": str(tmp_path / f"{name}.marker"),
            "num_pairs": 6,
            "num_endpoints": 5,
            "flow_bps": 1e8,
            "seed": 0,
        },
    }
    return {"name": name, "base": base, "axes": {"seed": [0, 1]}}


def test_error_point_transitions_to_done_exactly_once(tmp_path):
    """Regression: error -> done on resume, without inflating counts."""
    spec_dict = flaky_campaign(tmp_path, "flaky")
    store_path = tmp_path / "store.sqlite"

    # chunk_size=1: every group is one point.  (Grouped, the failed group
    # attempt would consume the marker and the per-point fallback succeed.)
    first = run_campaign(spec_dict, store_path=store_path, chunk_size=1)
    assert first.executed == 2
    assert first.failed == 1  # seed 0 builds the marker and fails
    with CampaignStore(store_path) as store:
        counts = store.status_counts(first.campaign_id)
        assert counts == {"done": 1, "error": 1, "pending": 0, "total": 2}

    second = run_campaign(spec_dict, store_path=store_path)
    assert second.executed == 1  # only the failed point re-ran
    assert second.failed == 0
    assert second.remaining == 0
    with CampaignStore(store_path) as store:
        counts = store.status_counts(second.campaign_id)
        assert counts == {"done": 2, "error": 0, "pending": 0, "total": 2}
        row = store.campaigns()[0]
        assert (row["done"], row["errors"]) == (2, 0)
        # The recovered point is clean: no stale traceback, exactly one
        # result row behind its hash.
        recovered = [
            point
            for point in store.points(second.campaign_id)
            if point["status"] == "done"
        ]
        assert len(recovered) == 2
        assert all(point["error"] is None for point in recovered)

    third = run_campaign(spec_dict, store_path=store_path)
    assert third.executed == 0 and third.failed == 0
    assert third.completed_before == 2


def test_error_point_recovers_under_worker_mode(tmp_path):
    """Worker invocations retry previous failures exactly like serial."""
    spec_dict = flaky_campaign(tmp_path, "flaky-worker")
    store_path = tmp_path / "store.sqlite"
    first = run_campaign(spec_dict, store_path=store_path, worker_id="w1")
    assert first.executed == 2 and first.failed == 1
    second = run_campaign(spec_dict, store_path=store_path, worker_id="w1")
    assert second.executed == 1 and second.failed == 0
    with CampaignStore(store_path) as store:
        counts = store.status_counts(second.campaign_id)
        assert counts == {"done": 2, "error": 0, "pending": 0, "total": 2}


def test_error_point_recovers_under_worker_fleet(tmp_path):
    """Fleet invocations reset errors once, pre-fork, then retry them."""
    spec_dict = flaky_campaign(tmp_path, "flaky-fleet")
    store_path = tmp_path / "store.sqlite"
    first = run_campaign(spec_dict, store_path=store_path, workers=2)
    assert first.executed == 2 and first.failed == 1
    second = run_campaign(spec_dict, store_path=store_path, workers=2)
    assert second.executed == 1 and second.failed == 0 and second.remaining == 0
    with CampaignStore(store_path) as store:
        counts = store.status_counts(second.campaign_id)
        assert counts == {"done": 2, "error": 0, "pending": 0, "total": 2}


def test_worker_with_reset_errors_off_leaves_error_points_alone(tmp_path):
    """The drain a fleet child calls must not re-reset a peer's fresh failure.

    Only the prepare step flips ``error`` points back to pending.  A point
    that fails *after* it — here: recorded by a fast peer between the
    prepare and this worker's start — stays ``error`` for this drain.
    """
    spec_dict = campaign_dict("noreset")
    store_path = tmp_path / "store.sqlite"
    prepared = prepare_campaign(spec_dict, store_path)
    with CampaignStore(store_path) as store:
        store.record_chunk(
            prepared.campaign_id, [_failed(prepared.points[0], "peer's fresh failure")]
        )
    tally = prepared.drain(0)
    assert (tally.executed, tally.failed) == (3, 0)  # the error point is skipped
    with CampaignStore(store_path) as store:
        counts = store.status_counts(prepared.campaign_id)
        assert counts == {"done": 3, "error": 1, "pending": 0, "total": 4}
    # The next invocation's prepare step is what retries it.
    retried = run_campaign(spec_dict, store_path=store_path)
    assert (retried.executed, retried.failed, retried.remaining) == (1, 0, 0)


# --------------------------------------------------------------------- #
# Worker-vs-serial identity (the acceptance property)
# --------------------------------------------------------------------- #
def canonical_dumps_match(serial_path, serial_id, other_path, other_id):
    with CampaignStore(serial_path, read_only=True) as a:
        dump_serial = a.canonical_dump(serial_id)
    with CampaignStore(other_path, read_only=True) as b:
        dump_other = b.canonical_dump(other_id)
    return dump_serial == dump_other


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_workers_drain_matches_serial_store(tmp_path, workers):
    """N workers on one 24-point grid == one serial run, bit for bit."""
    spec_dict = twentyfour_point_campaign()
    serial_path = tmp_path / "serial.sqlite"
    serial = run_campaign(spec_dict, store_path=serial_path)
    assert (serial.executed, serial.failed) == (24, 0)

    fleet_path = tmp_path / f"fleet{workers}.sqlite"
    fleet = run_campaign(spec_dict, store_path=fleet_path, workers=workers)
    assert fleet.workers == workers
    assert fleet.executed == 24
    assert fleet.failed == 0
    assert fleet.remaining == 0
    assert canonical_dumps_match(
        serial_path, serial.campaign_id, fleet_path, fleet.campaign_id
    )


def test_workers_reclaim_crashed_workers_points_and_match_serial(tmp_path):
    """A dead worker's leased points are reclaimed after lease expiry."""
    spec_dict = twentyfour_point_campaign("grid24-crash")
    serial_path = tmp_path / "serial.sqlite"
    serial = run_campaign(spec_dict, store_path=serial_path)

    fleet_path = tmp_path / "fleet.sqlite"
    store_path, campaign_id, points = registered_store(
        tmp_path, spec_dict, "fleet.sqlite"
    )
    # Simulate a worker that claimed a batch and was SIGKILLed: the lease
    # exists, nothing was persisted, and no heartbeat will ever come.
    with CampaignStore(fleet_path) as store:
        crashed = store.claim_points(campaign_id, "crashed-worker", 6, 0.05)
        assert len(crashed) == 6
    time.sleep(0.1)  # let the crashed worker's lease expire

    fleet = run_campaign(
        spec_dict, store_path=fleet_path, workers=2, lease_seconds=30.0
    )
    assert fleet.executed == 24  # including the crashed worker's 6 points
    assert fleet.remaining == 0
    assert canonical_dumps_match(
        serial_path, serial.campaign_id, fleet_path, fleet.campaign_id
    )


def test_lone_drain_honours_a_live_peers_leases_then_takes_them_over(
    tmp_path, monkeypatch
):
    """A lone invocation is a lease worker: it never re-executes a peer's points.

    With two of four points leased to a live peer, a lone drain bounded to
    the unleased ones executes exactly those and leaves the peer's leases
    alone; once the peer's lease has run out (injected clock) the next lone
    invocation takes its points over.  No point runs twice and the store
    ends up identical to a clean drain's.
    """
    spec_dict = campaign_dict("lone-vs-peer")
    store_path, campaign_id, points = registered_store(tmp_path, spec_dict)
    hashes = [point.config_hash for point in points]
    executed = []
    real = campaign_run._run_group

    def recording(group, heartbeat):
        executed.extend(point.config_hash for point in group)
        return real(group, heartbeat)

    monkeypatch.setattr(campaign_run, "_run_group", recording)
    now = time.time()
    with CampaignStore(store_path) as store:
        assert store.claim_points(campaign_id, "peer", 2, 3600.0, now=now) == hashes[:2]

    first = run_campaign(spec_dict, store_path=store_path, max_points=2)
    assert (first.executed, first.failed, first.remaining) == (2, 0, 2)
    assert executed == hashes[2:]
    with CampaignStore(store_path) as store:
        (lease,) = store.active_leases(campaign_id, now=now)
        assert (lease["worker_id"], lease["points"]) == ("peer", 2)
        assert lease["expires_at"] == now + 3600.0  # untouched, not renewed
        # The peer dies; its last heartbeat is now long past its lease.
        assert store.renew_leases(campaign_id, "peer", 60.0, now=now - 3600.0) == 2
        assert store.active_leases(campaign_id) == []

    second = run_campaign(spec_dict, store_path=store_path)
    assert (second.completed_before, second.executed, second.remaining) == (2, 2, 0)
    assert executed == hashes[2:] + hashes[:2]  # every point exactly once

    clean_path = tmp_path / "clean.sqlite"
    clean = run_campaign(spec_dict, store_path=clean_path)
    assert canonical_dumps_match(
        clean_path, clean.campaign_id, store_path, second.campaign_id
    )


#: The scenarios ``_test-slow`` started, in order (one per point run).
SLOW_RUNS = []

#: How long one ``_test-slow`` point takes.
SLOW_POINT_S = 0.5


if "_test-slow" not in component_names("scheme"):

    @register("scheme", "_test-slow")
    class _SlowRuntime(SchemeRuntime):
        """A scheme whose every run takes :data:`SLOW_POINT_S` and is recorded."""

        def start(self, scenario):
            SLOW_RUNS.append(scenario.spec.name)
            time.sleep(SLOW_POINT_S)
            return None

        def step(self, state, time_s, matrix, view):
            return IntervalOutcome(power_percent=100.0)


def test_a_group_longer_than_the_lease_keeps_it_and_runs_every_point_once(tmp_path):
    """A lone drain claims the whole grid as one group; a group that takes
    longer than the lease renews it point by point, so a ``--worker-id``
    joiner polling beside it never takes a point over and runs it again."""
    spec_dict = campaign_dict("heartbeat", axes={"seed": [0, 1, 2, 3, 4]})
    spec_dict["base"]["schemes"] = ["_test-slow"]
    store_path, campaign_id, points = registered_store(tmp_path, spec_dict)
    lease_seconds = 3 * SLOW_POINT_S  # the group takes 5 points' time
    SLOW_RUNS.clear()
    errors = []

    def drain(**options):
        try:
            run_campaign(spec_dict, store_path=store_path, lease_seconds=lease_seconds, **options)
        except BaseException as error:  # surfaced below
            errors.append(error)

    lone = threading.Thread(target=drain)
    lone.start()
    deadline = time.time() + 30
    with CampaignStore(store_path, read_only=True) as store:
        while not store.active_leases(campaign_id) and time.time() < deadline:
            time.sleep(0.01)
    joiner = threading.Thread(target=drain, kwargs={"worker_id": "joiner"})
    joiner.start()
    for thread in (lone, joiner):
        thread.join(timeout=60)
    assert not errors and not lone.is_alive() and not joiner.is_alive()
    assert sorted(SLOW_RUNS) == sorted(point.name for point in points)
    with CampaignStore(store_path, read_only=True) as store:
        assert store.status_counts(campaign_id)["done"] == len(points)


def test_result_under_a_foreign_config_hash_is_an_error_with_its_phases(
    tmp_path, monkeypatch
):
    """The resume bookkeeping's guard: never ``done``, never adopted."""
    spec_dict = campaign_dict("foreign-hash", axes={"seed": [0, 1]})
    store_path = tmp_path / "store.sqlite"
    foreign_hash = "f" * 64
    real = campaign_run._run_group

    def foreign(group, heartbeat):
        results = real(group, heartbeat)
        results[0].config_hash = foreign_hash
        return results

    monkeypatch.setattr(campaign_run, "_run_group", foreign)
    summary = run_campaign(spec_dict, store_path=store_path, profile=True)
    assert (summary.executed, summary.failed, summary.remaining) == (2, 1, 1)
    assert "does not match the expanded point's" in summary.errors[0]
    with CampaignStore(store_path) as store:
        rows = store.points(summary.campaign_id)
        assert [row["status"] for row in rows] == ["error", "done"]
        assert "does not match" in rows[0]["error"]
        # The guard's record carries the group's phases like its siblings.
        assert all(set(row["phases"]) == set(PHASE_NAMES) for row in rows)
        assert rows[0]["phases"] == rows[1]["phases"]
        # Nothing was filed under either hash, so nothing can adopt it.
        assert store.result(foreign_hash) is None
        assert store.result(rows[0]["config_hash"]) is None
    monkeypatch.undo()
    retried = run_campaign(spec_dict, store_path=store_path)
    assert (retried.adopted, retried.executed, retried.remaining) == (0, 1, 0)


def test_single_worker_invocation_resumes_bounded_slices(tmp_path):
    """worker_id + max_points: bounded cooperative slices still resume."""
    spec_dict = campaign_dict()
    store_path = tmp_path / "store.sqlite"
    first = run_campaign(
        spec_dict, store_path=store_path, worker_id="w1", max_points=3
    )
    assert first.executed == 3 and first.remaining == 1
    second = run_campaign(spec_dict, store_path=store_path, worker_id="w2")
    assert second.executed == 1 and second.remaining == 0
    serial_path = tmp_path / "serial.sqlite"
    serial = run_campaign(spec_dict, store_path=serial_path)
    assert canonical_dumps_match(
        serial_path, serial.campaign_id, store_path, second.campaign_id
    )


def test_out_of_range_options_are_rejected_before_anything_is_registered(tmp_path):
    """Range checks live in one place, ahead of the store being touched."""
    store_path = tmp_path / "store.sqlite"
    for options, match in (
        ({"workers": 0}, "workers"),
        ({"workers": 2, "worker_id": "w1"}, "mutually exclusive"),
        ({"max_points": -1}, "max_points"),
        ({"chunk_size": 0}, "chunk_size"),
    ):
        with pytest.raises(ConfigurationError, match=match):
            run_campaign(campaign_dict(), store_path=store_path, **options)
    assert not store_path.exists()


def test_non_positive_lease_seconds_is_rejected(tmp_path):
    """A lease of 0 is born expired — every worker would double-claim."""
    for lease in (0.0, -5.0):
        for launch in ({}, {"worker_id": "w1"}, {"workers": 2}):
            with pytest.raises(ConfigurationError, match="lease_seconds"):
                run_campaign(
                    campaign_dict(),
                    store_path=tmp_path / "store.sqlite",
                    lease_seconds=lease,
                    **launch,
                )


# --------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------- #
def test_cli_workers_drain_and_status_leases(tmp_path, capsys):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign_dict("cli-workers")))
    store_path = tmp_path / "store.sqlite"
    assert (
        main(
            [
                "run-campaign",
                "--spec",
                str(spec_path),
                "--store",
                str(store_path),
                "--workers",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "workers: 2" in out
    assert "4 executed" in out and "0 remaining" in out
    # Re-running with workers resumes (nothing executed the second time).
    assert (
        main(
            [
                "run-campaign",
                "--spec",
                str(spec_path),
                "--store",
                str(store_path),
                "--workers",
                "2",
                "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 0
    assert payload["completed_before"] == 4
    assert payload["workers"] == 2
    assert main(["campaign-status", "--store", str(store_path), "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["campaigns"][0]["done"] == 4
    assert status["leases"] == {status["campaigns"][0]["campaign_id"]: []}


def test_active_leases_expose_worker_id_and_expires_at(tmp_path):
    """Lease rows carry both the legacy and the service field names.

    ``campaign-status --json`` and the service's status endpoint share one
    code path (``CampaignStore.active_leases``); this pins the row shape
    both consumers rely on (service satellite).
    """
    store_path, campaign_id, points = registered_store(tmp_path, campaign_dict())
    with CampaignStore(store_path) as store:
        store.claim_points(campaign_id, "w1", 2, 10.0, now=1000.0)
        (lease,) = store.active_leases(campaign_id, now=1004.0)
        assert lease["worker_id"] == lease["worker"] == "w1"
        assert lease["points"] == 2
        assert lease["expires_at"] == 1010.0  # absolute, time.time scale
        assert lease["expires_in_s"] == pytest.approx(6.0)


def test_cli_campaign_status_json_reports_lease_fields(tmp_path, capsys):
    """The --json status payload includes worker_id/expires_at per lease."""
    store_path, campaign_id, points = registered_store(tmp_path, campaign_dict())
    far_future = time.time() + 3600.0
    with CampaignStore(store_path) as store:
        store.claim_points(campaign_id, "svc-worker", 3, 3600.0)
    assert main(["campaign-status", "--store", str(store_path), "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    (lease,) = status["leases"][campaign_id]
    assert lease["worker_id"] == lease["worker"] == "svc-worker"
    assert lease["points"] == 3
    assert lease["expires_at"] == pytest.approx(far_future, abs=60.0)
    assert 0.0 < lease["expires_in_s"] <= 3600.0


def test_cli_rejects_conflicting_execution_modes(tmp_path, capsys):
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign_dict()))
    for flags in (
        ["--workers", "2", "--worker-id", "w1"],
        ["--workers", "0"],
        ["--workers", "2", "--lease-seconds", "0"],
        ["--chunk-size", "0"],
        ["--max-points", "-1"],
        ["--parallel"],  # retired with the pool it selected
        ["--cache-dir", "x"],
    ):
        with pytest.raises(SystemExit):
            main(
                ["run-campaign", "--spec", str(spec_path), "--store", "x.sqlite"]
                + flags
            )
        capsys.readouterr()
