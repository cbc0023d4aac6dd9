"""The persistent campaign results store (SQLite), safe for many processes.

Every campaign run records what it did into one SQLite file, so a grid of
hundreds of scenarios has a durable record — what ran, what failed, how
long each point took and every :class:`~repro.outcome.ScenarioResult`
row — instead of a directory of anonymous pickles.  The schema:

* ``campaigns`` — one row per registered campaign (identity = the
  schema-versioned hash of its spec), holding the spec JSON.
* ``points`` — one row per expanded grid point and campaign, carrying the
  point's axis coordinates, scenario spec, status (``pending`` → ``done`` /
  ``error``), error traceback, timing and the point's current **lease**
  (worker id + expiry) while a worker is computing it.
* ``results`` — one row per **config hash**, holding the result JSON.  The
  config hash is the idempotency key: a point whose hash already has a
  result is complete by definition, which is what makes campaigns
  resumable (and lets separate campaigns share identical points).
* ``metrics`` — flattened per-scheme scalar metrics
  (:meth:`~repro.outcome.ScenarioResult.headline_metrics`) per
  config hash, so the report layer aggregates without re-parsing JSON.

Concurrency model
-----------------

Many processes may hold the store open at once — N ``run-campaign``
workers draining one grid while ``campaign-status`` polls it.  Three
mechanisms make that safe:

* **WAL journal mode** plus a ``busy_timeout``: readers never block on the
  writer, and a second writer waits (bounded) instead of raising
  ``database is locked``.  Writable connections also retry ``BEGIN
  IMMEDIATE`` with exponential backoff as a belt-and-braces layer on top
  of the timeout.
* **Short, explicit transactions**: every mutation runs inside one
  ``BEGIN IMMEDIATE … COMMIT`` block (:meth:`CampaignStore.transaction`),
  and a whole chunk of outcomes persists in a *single* transaction
  (:meth:`CampaignStore.record_chunk`) — a killed writer can never leave
  a partially persisted chunk behind.
* **Leases**: workers claim pending points atomically
  (:meth:`CampaignStore.claim_points`), renew their leases while
  computing (:meth:`CampaignStore.renew_leases`) and implicitly release
  them when the chunk commits.  A worker that dies simply stops renewing;
  once its lease expires the points are claimable again, so a crashed
  worker's share of the grid is reclaimed by its peers.

Read-only consumers (``campaign-status``/``campaign-report``) should open
the store with ``read_only=True``: such a connection cannot take write
locks at all, so it can never contend with (or corrupt) a live run.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..exceptions import ConfigurationError
from ..obs import metrics
from ..outcome import ScenarioResult, canonical_result_dict

if TYPE_CHECKING:  # the status and report commands read rows without the scenario stack
    from .spec import CampaignPoint, CampaignSpec

#: Bump on incompatible schema changes (checked against ``PRAGMA user_version``).
#: Version 2 added the lease columns (``lease_owner``, ``lease_expires_at``)
#: to ``points``; version 3 added the optional ``phases_json`` profile
#: column.  Older stores are migrated in place on a writable open.
STORE_SCHEMA_VERSION = 3

#: How long a writable connection waits on a locked database before SQLite
#: itself gives up (seconds).  Generous by design: campaign transactions
#: are short, so waiting always beats failing.
DEFAULT_BUSY_TIMEOUT_S = 30.0

#: How long a worker's claim on a batch of points lasts without renewal.
#: Leases are renewed after every group, so this only needs to exceed the
#: slowest single group by a margin.
DEFAULT_LEASE_SECONDS = 60.0

#: How often ``BEGIN IMMEDIATE`` is retried on top of the busy timeout.
_LOCK_RETRIES = 5
_LOCK_RETRY_INITIAL_DELAY_S = 0.05

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    num_points  INTEGER NOT NULL,
    created_at  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    campaign_id      TEXT NOT NULL REFERENCES campaigns(campaign_id),
    config_hash      TEXT NOT NULL,
    point_index      INTEGER NOT NULL,
    name             TEXT NOT NULL,
    axes_json        TEXT NOT NULL,
    spec_json        TEXT NOT NULL,
    status           TEXT NOT NULL DEFAULT 'pending',
    error            TEXT,
    elapsed_s        REAL,
    completed_at     TEXT,
    lease_owner      TEXT,
    lease_expires_at REAL,
    phases_json      TEXT,
    PRIMARY KEY (campaign_id, config_hash)
);
CREATE TABLE IF NOT EXISTS results (
    config_hash TEXT PRIMARY KEY,
    result_json TEXT NOT NULL,
    created_at  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    config_hash TEXT NOT NULL REFERENCES results(config_hash),
    scheme      TEXT NOT NULL,
    metric      TEXT NOT NULL,
    value       REAL,
    PRIMARY KEY (config_hash, scheme, metric)
);
CREATE INDEX IF NOT EXISTS idx_points_status ON points(campaign_id, status);
"""

#: Statements migrating a version-1 store (no lease columns) in place.
_MIGRATE_V1_TO_V2 = (
    "ALTER TABLE points ADD COLUMN lease_owner TEXT",
    "ALTER TABLE points ADD COLUMN lease_expires_at REAL",
)

#: Statements migrating a version-2 store (no profile column) in place.
_MIGRATE_V2_TO_V3 = (
    "ALTER TABLE points ADD COLUMN phases_json TEXT",
)

#: In-place migrations, keyed by the version they upgrade *from*.  Each
#: entry moves a store one version forward; a writable open chains them
#: until the store reaches :data:`STORE_SCHEMA_VERSION`.
_MIGRATIONS: Dict[int, Tuple[str, ...]] = {
    1: _MIGRATE_V1_TO_V2,
    2: _MIGRATE_V2_TO_V3,
}

_LEASE_CLAIMS = metrics.counter(
    "repro_campaign_lease_claims_total", "Points leased to workers"
)
_LEASE_TAKEOVERS = metrics.counter(
    "repro_campaign_lease_takeovers_total",
    "Points re-leased after their previous owner's lease expired",
)
_LEASE_RENEWALS = metrics.counter(
    "repro_campaign_lease_renewals_total", "Lease heartbeat renewals"
)
_LEASE_RELEASES = metrics.counter(
    "repro_campaign_lease_releases_total", "Leases dropped on clean shutdown"
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _is_locked_error(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


@dataclass(frozen=True)
class PointRecord:
    """One point's outcome, ready to persist.

    ``record_chunk`` takes a sequence of these and commits them in a single
    transaction.  Exactly one of *result*/*error* is set.

    Attributes:
        point: The executed campaign point.
        result: The scenario result on success, ``None`` on failure.
        error: The failure traceback, ``None`` on success.
        elapsed_s: Wall-clock execution time of the point.
        phases: Optional phase-timing breakdown (``--profile`` runs only),
            keyed by :data:`repro.obs.PHASE_NAMES`.
    """

    point: CampaignPoint
    result: Optional[ScenarioResult] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    phases: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        """Whether the point succeeded."""
        return self.error is None


class CampaignStore:
    """One SQLite results store, usable as a context manager.

    Args:
        path: The store file (created, with its parents, unless read-only).
        read_only: Open a connection that cannot take write locks — the
            right mode for status/report consumers running alongside a
            live campaign.  Requires the store to exist.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        read_only: bool = False,
    ):
        self.path = Path(path)
        self.read_only = read_only
        if read_only:
            if not self.path.exists():
                raise ConfigurationError(
                    f"campaign store {self.path} does not exist "
                    "(read-only connections never create one)"
                )
            try:
                self._connection = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True
                )
            except sqlite3.OperationalError as error:
                raise ConfigurationError(
                    f"cannot open campaign store {self.path} read-only ({error})"
                ) from error
        else:
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._connection = sqlite3.connect(str(self.path))
        self._connection.row_factory = sqlite3.Row
        # Explicit transaction control: the connection stays in autocommit
        # mode and every mutation runs inside BEGIN IMMEDIATE ... COMMIT
        # (see :meth:`transaction`), keeping write transactions short and
        # their lock acquisition up-front.
        self._connection.isolation_level = None
        try:
            self._connection.execute(
                f"PRAGMA busy_timeout = {int(DEFAULT_BUSY_TIMEOUT_S * 1000)}"
            )
            self._connection.execute("PRAGMA foreign_keys = ON")
            version = self._connection.execute("PRAGMA user_version").fetchone()[0]
        except sqlite3.DatabaseError as error:
            self._connection.close()
            raise ConfigurationError(
                f"{self.path} is not a SQLite campaign store ({error})"
            ) from error
        if not read_only:
            # WAL journalling is what lets readers run beside the writer
            # (and writers queue instead of erroring).  NORMAL synchronous
            # is the standard WAL pairing: commits are durable against
            # process crashes, and an OS crash can only lose whole
            # transactions, never corrupt the store.
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
        if version == 0:
            if read_only:
                self._connection.close()
                raise ConfigurationError(
                    f"campaign store {self.path} is empty (no schema); "
                    "run a campaign against it first"
                )
            # executescript() commits any pending transaction first, so the
            # schema runs in autocommit mode instead of self.transaction().
            # That is safe to race: every statement is IF NOT EXISTS, and a
            # crash mid-schema leaves user_version at 0, so the next open
            # simply finishes the job.
            self._connection.executescript(_SCHEMA)
            self._connection.execute(
                f"PRAGMA user_version = {STORE_SCHEMA_VERSION}"
            )
        elif version in _MIGRATIONS and not read_only:
            # In-place migration: every step only adds nullable columns, so
            # stored rows survive and older stores stay resumable by this
            # code.  The version is re-read after the write lock is held:
            # two processes opening an old store concurrently both pass the
            # check above, and the one that loses the lock race must not
            # repeat the ALTERs.
            try:
                with self.transaction():
                    current = self._connection.execute(
                        "PRAGMA user_version"
                    ).fetchone()[0]
                    while current in _MIGRATIONS:
                        for statement in _MIGRATIONS[current]:
                            self._connection.execute(statement)
                        current += 1
                        self._connection.execute(
                            f"PRAGMA user_version = {current}"
                        )
            except BaseException:
                self._connection.close()
                raise
        elif version in _MIGRATIONS and read_only:
            # An old store is readable as-is: the query layer tolerates the
            # missing columns.  Migration happens on the next writable open.
            pass
        elif version != STORE_SCHEMA_VERSION:
            self._connection.close()
            raise ConfigurationError(
                f"campaign store {self.path} has schema version {version}, "
                f"this code expects {STORE_SCHEMA_VERSION}"
            )

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """One short write transaction: ``BEGIN IMMEDIATE`` … ``COMMIT``.

        The write lock is taken up-front (so concurrent writers queue on
        the busy timeout instead of deadlocking on a lock upgrade) and
        ``BEGIN`` itself is retried with backoff when the database stays
        locked past the timeout.  *Any* exception — including
        ``KeyboardInterrupt`` — rolls the whole transaction back: partial
        writes can never become visible.

        Raises:
            ConfigurationError: When the store was opened read-only.
        """
        if self.read_only:
            raise ConfigurationError(
                f"campaign store {self.path} is open read-only; writes need a "
                "writable CampaignStore"
            )
        delay = _LOCK_RETRY_INITIAL_DELAY_S
        for attempt in range(_LOCK_RETRIES):
            try:
                self._connection.execute("BEGIN IMMEDIATE")
                break
            except sqlite3.OperationalError as error:
                if not _is_locked_error(error) or attempt == _LOCK_RETRIES - 1:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
        try:
            yield self._connection
        except BaseException:
            self._connection.execute("ROLLBACK")
            raise
        self._connection.execute("COMMIT")

    # ------------------------------------------------------------------ #
    # Registration and status
    # ------------------------------------------------------------------ #
    def register_campaign(
        self, spec: CampaignSpec, points: Sequence[CampaignPoint]
    ) -> str:
        """Idempotently record a campaign and its expanded points.

        Re-registering the same campaign (same spec, hence same id) leaves
        existing point statuses untouched — that is what makes re-invoking
        ``run-campaign`` a resume rather than a restart, and lets N workers
        register concurrently without stepping on each other.
        """
        campaign_id = spec.campaign_id()
        with self.transaction() as connection:
            connection.execute(
                "INSERT OR IGNORE INTO campaigns "
                "(campaign_id, name, spec_json, num_points, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    spec.name,
                    json.dumps(spec.to_dict(), sort_keys=True),
                    len(points),
                    _now(),
                ),
            )
            connection.executemany(
                "INSERT OR IGNORE INTO points "
                "(campaign_id, config_hash, point_index, name, axes_json, spec_json) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        campaign_id,
                        point.config_hash,
                        point.index,
                        point.name,
                        json.dumps(point.axes, sort_keys=True),
                        json.dumps(point.spec.to_dict(), sort_keys=True),
                    )
                    for point in points
                ],
            )
        return campaign_id

    def adopt_existing_results(self, campaign_id: str) -> int:
        """Mark pending points complete when their result row already exists.

        The config hash is the idempotency key across the whole store, so a
        point another campaign (or an interrupted run) already computed is
        done — no execution needed.  Returns how many points were adopted.
        """
        with self.transaction() as connection:
            cursor = connection.execute(
                "UPDATE points SET status = 'done', error = NULL, "
                "completed_at = ?, lease_owner = NULL, lease_expires_at = NULL "
                "WHERE campaign_id = ? AND status != 'done' "
                "AND config_hash IN (SELECT config_hash FROM results)",
                (_now(), campaign_id),
            )
            return cursor.rowcount

    def reset_error_points(self, campaign_id: str) -> int:
        """Flip unleased ``error`` points back to ``pending`` for a retry.

        Worker-mode invocations call this once at startup so failures from
        *previous* invocations are retried, exactly like the serial resume
        path re-executes them.  Points under a live lease are left alone —
        their owner is still working on them.  Returns how many points were
        reset.
        """
        with self.transaction() as connection:
            cursor = connection.execute(
                "UPDATE points SET status = 'pending', error = NULL "
                "WHERE campaign_id = ? AND status = 'error' "
                "AND (lease_owner IS NULL OR lease_expires_at IS NULL "
                "     OR lease_expires_at <= ?)",
                (campaign_id, time.time()),
            )
            return cursor.rowcount

    def status_counts(self, campaign_id: str) -> Dict[str, int]:
        """``{'total', 'done', 'error', 'pending'}`` counts for a campaign."""
        rows = self._connection.execute(
            "SELECT status, COUNT(*) AS n FROM points "
            "WHERE campaign_id = ? GROUP BY status",
            (campaign_id,),
        )
        counts = {"done": 0, "error": 0, "pending": 0}
        for row in rows:
            counts[row["status"]] = row["n"]
        counts["total"] = sum(counts.values())
        return counts

    # ------------------------------------------------------------------ #
    # Leases
    # ------------------------------------------------------------------ #
    def claim_points(
        self,
        campaign_id: str,
        worker_id: str,
        limit: int,
        lease_seconds: float,
        # repro: allow[REP502] the injected clock tests/test_campaign_workers.py expires leases with
        now: Optional[float] = None,
    ) -> List[str]:
        """Atomically lease up to *limit* pending points to *worker_id*.

        A point is claimable when its status is ``pending`` and it carries
        no live lease — never leased, explicitly released, or leased by a
        worker whose lease has expired (the crash-recovery path: a dead
        worker stops renewing, so its points become claimable again).
        Selection follows grid order, and the SELECT + UPDATE pair runs
        inside one ``BEGIN IMMEDIATE`` transaction, so two workers can
        never claim the same point.

        Args:
            campaign_id: The campaign to claim from.
            worker_id: The claiming worker's identity.
            limit: Maximum number of points to claim.
            lease_seconds: How long the lease lasts without renewal.
            now: Injectable clock (seconds, ``time.time`` scale) for tests.

        Returns:
            The claimed points' config hashes, in grid order (empty when
            nothing is claimable).
        """
        if limit < 1:
            return []
        now = time.time() if now is None else now
        with self.transaction() as connection:
            rows = connection.execute(
                "SELECT config_hash, lease_owner FROM points "
                "WHERE campaign_id = ? AND status = 'pending' "
                "AND (lease_owner IS NULL OR lease_expires_at IS NULL "
                "     OR lease_expires_at <= ?) "
                "ORDER BY point_index LIMIT ?",
                (campaign_id, now, limit),
            ).fetchall()
            hashes = [row["config_hash"] for row in rows]
            takeovers = sum(
                1
                for row in rows
                if row["lease_owner"] is not None and row["lease_owner"] != worker_id
            )
            connection.executemany(
                "UPDATE points SET lease_owner = ?, lease_expires_at = ? "
                "WHERE campaign_id = ? AND config_hash = ?",
                [
                    (worker_id, now + lease_seconds, campaign_id, config_hash)
                    for config_hash in hashes
                ],
            )
        if hashes:
            _LEASE_CLAIMS.inc(len(hashes))
        if takeovers:
            _LEASE_TAKEOVERS.inc(takeovers)
        return hashes

    def renew_leases(
        self,
        campaign_id: str,
        worker_id: str,
        lease_seconds: float,
        # repro: allow[REP502] the injected clock tests/test_campaign_workers.py renews against
        now: Optional[float] = None,
    ) -> int:
        """Heartbeat: extend every lease *worker_id* still holds.

        Workers call this between point executions, so a lease only
        expires when its owner actually stopped making progress.  Returns
        how many leases were renewed.
        """
        now = time.time() if now is None else now
        with self.transaction() as connection:
            cursor = connection.execute(
                "UPDATE points SET lease_expires_at = ? "
                "WHERE campaign_id = ? AND lease_owner = ? AND status = 'pending'",
                (now + lease_seconds, campaign_id, worker_id),
            )
            renewed = cursor.rowcount
        if renewed:
            _LEASE_RENEWALS.inc(renewed)
        return renewed

    def release_leases(self, campaign_id: str, worker_id: str) -> int:
        """Drop every lease *worker_id* holds (clean shutdown / interrupt).

        The points stay ``pending`` and become immediately claimable by
        other workers — no need to wait out the expiry.  Returns how many
        leases were released.
        """
        with self.transaction() as connection:
            cursor = connection.execute(
                "UPDATE points SET lease_owner = NULL, lease_expires_at = NULL "
                "WHERE campaign_id = ? AND lease_owner = ?",
                (campaign_id, worker_id),
            )
            released = cursor.rowcount
        if released:
            _LEASE_RELEASES.inc(released)
        return released

    def active_leases(
        self,
        campaign_id: str,
        # repro: allow[REP502] the injected clock tests/test_campaign_workers.py reads countdowns at
        now: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Live leases per worker.

        One row per worker holding unexpired leases on pending points:
        ``worker_id`` (and the legacy alias ``worker``), how many
        ``points`` it holds, the earliest absolute ``expires_at``
        (``time.time`` scale) and the derived ``expires_in_s`` countdown.
        This single method backs both the ``campaign-status --json``
        output and the service's status endpoint, so every consumer sees
        the same lease view.
        """
        now = time.time() if now is None else now
        try:
            rows = self._connection.execute(
                "SELECT lease_owner AS worker, COUNT(*) AS points, "
                "MIN(lease_expires_at) AS earliest_expiry "
                "FROM points WHERE campaign_id = ? AND status = 'pending' "
                "AND lease_owner IS NOT NULL AND lease_expires_at > ? "
                "GROUP BY lease_owner ORDER BY lease_owner",
                (campaign_id, now),
            ).fetchall()
        except sqlite3.OperationalError:
            # A read-only view of an unmigrated v1 store has no lease
            # columns — and therefore no leases to report.
            return []
        return [
            {
                "worker": row["worker"],
                "worker_id": row["worker"],
                "points": row["points"],
                "expires_at": row["earliest_expiry"],
                "expires_in_s": max(0.0, row["earliest_expiry"] - now),
            }
            for row in rows
        ]

    # ------------------------------------------------------------------ #
    # Recording outcomes
    # ------------------------------------------------------------------ #
    def _persist_record(
        self, connection: sqlite3.Connection, campaign_id: str, record: PointRecord
    ) -> None:
        """Write one outcome's rows (no transaction management here)."""
        point = record.point
        phases_json = (
            json.dumps(record.phases, sort_keys=True)
            if record.phases is not None
            else None
        )
        if record.error is not None:
            connection.execute(
                "UPDATE points SET status = 'error', error = ?, elapsed_s = ?, "
                "completed_at = ?, lease_owner = NULL, lease_expires_at = NULL, "
                "phases_json = ? "
                "WHERE campaign_id = ? AND config_hash = ?",
                (
                    record.error,
                    record.elapsed_s,
                    _now(),
                    phases_json,
                    campaign_id,
                    point.config_hash,
                ),
            )
            return
        result_dict = record.result.to_dict()
        connection.execute(
            "INSERT OR REPLACE INTO results (config_hash, result_json, created_at) "
            "VALUES (?, ?, ?)",
            (point.config_hash, json.dumps(result_dict, sort_keys=True), _now()),
        )
        connection.execute(
            "DELETE FROM metrics WHERE config_hash = ?", (point.config_hash,)
        )
        connection.executemany(
            "INSERT INTO metrics (config_hash, scheme, metric, value) "
            "VALUES (?, ?, ?, ?)",
            [
                (point.config_hash, scheme, metric, float(value))
                for scheme, entry in record.result.headline_metrics().items()
                for metric, value in entry.items()
            ],
        )
        connection.execute(
            "UPDATE points SET status = 'done', error = NULL, elapsed_s = ?, "
            "completed_at = ?, lease_owner = NULL, lease_expires_at = NULL, "
            "phases_json = ? "
            "WHERE campaign_id = ? AND config_hash = ?",
            (record.elapsed_s, _now(), phases_json, campaign_id, point.config_hash),
        )

    def record_chunk(
        self, campaign_id: str, records: Sequence[PointRecord]
    ) -> None:
        """Persist a whole chunk of outcomes in one transaction.

        All-or-nothing durability: a ``KeyboardInterrupt`` (or any other
        failure) while the chunk is being written rolls every row back, so
        an interrupted run never leaves a half-persisted chunk — the
        affected points simply stay ``pending`` and re-run on resume.
        Successful records also clear the points' leases.
        """
        if not records:
            return
        with self.transaction() as connection:
            for record in records:
                self._persist_record(connection, campaign_id, record)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def campaigns(self) -> List[Dict[str, Any]]:
        """Every stored campaign with its status counts, oldest first."""
        return self._campaign_rows("", ())

    def _campaign_rows(self, where: str, params: Tuple[Any, ...]) -> List[Dict[str, Any]]:
        """The campaigns *where* selects, with their status counts, oldest first."""
        rows = self._connection.execute(
            "SELECT c.campaign_id, c.name, c.num_points, c.created_at, "
            "SUM(p.status = 'done') AS done, SUM(p.status = 'error') AS errors, "
            "SUM(p.status = 'pending') AS pending "
            f"FROM campaigns c LEFT JOIN points p USING (campaign_id) {where} "
            "GROUP BY c.campaign_id ORDER BY c.created_at, c.campaign_id",
            params,
        )
        return [dict(row) for row in rows]

    def find_campaign(self, selector: Optional[str] = None) -> Dict[str, Any]:
        """Resolve a campaign by name, full id or id prefix.

        With no selector the store must hold exactly one campaign.  Only the
        selected campaign's points are counted, so a service read costs the
        same however many campaigns the store holds.

        Raises:
            ConfigurationError: On no match, an ambiguous match, or an
                empty store.
        """
        matches = self._campaign_rows(
            "WHERE ?1 IS NULL OR c.name = ?1 OR substr(c.campaign_id, 1, length(?1)) = ?1",
            (selector,),
        )
        if len(matches) == 1:
            return matches[0]
        campaigns = matches if selector is None else self.campaigns()
        if not campaigns:
            raise ConfigurationError(f"campaign store {self.path} holds no campaigns")
        names = ", ".join(
            f"{row['name']} ({row['campaign_id'][:12]})" for row in campaigns
        )
        if selector is None:
            raise ConfigurationError(
                f"campaign store holds {len(campaigns)} campaigns — select one "
                f"by name or id: {names}"
            )
        if not matches:
            raise ConfigurationError(
                f"no campaign matches {selector!r}; stored campaigns: {names}"
            )
        raise ConfigurationError(
            f"{selector!r} is ambiguous; stored campaigns: {names}"
        )

    #: The point statuses a :meth:`points` filter may name.
    POINT_STATUSES = ("pending", "done", "error")

    def points(
        self,
        campaign_id: str,
        status: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Dict[str, Any]]:
        """Point rows of a campaign, in grid order (axes decoded).

        Filtering and pagination happen SQL-side, so consumers serving a
        slice of a huge grid (the service's points endpoint) never
        materialise every row.

        Args:
            campaign_id: The campaign to list.
            status: Only rows with this status (``pending``/``done``/
                ``error``); ``None`` returns every status.
            limit: At most this many rows (``None`` = no bound).
            offset: Skip this many rows (after the status filter, in grid
                order) — the pagination cursor.

        Raises:
            ConfigurationError: On an unknown status or a negative
                limit/offset.
        """
        if status is not None and status not in self.POINT_STATUSES:
            raise ConfigurationError(
                f"unknown point status {status!r}; expected one of "
                f"{list(self.POINT_STATUSES)}"
            )
        if limit is not None and limit < 0:
            raise ConfigurationError(f"limit must be >= 0, got {limit}")
        if offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset}")
        query = "SELECT * FROM points WHERE campaign_id = ?"
        params: List[Any] = [campaign_id]
        if status is not None:
            query += " AND status = ?"
            params.append(status)
        query += " ORDER BY point_index"
        if limit is not None or offset:
            # SQLite requires LIMIT before OFFSET; -1 means unbounded.
            query += " LIMIT ? OFFSET ?"
            params.extend([-1 if limit is None else limit, offset])
        rows = self._connection.execute(query, params)
        decoded = []
        for row in rows:
            entry = dict(row)
            entry["axes"] = json.loads(entry.pop("axes_json"))
            entry["spec"] = json.loads(entry.pop("spec_json"))
            phases_json = entry.pop("phases_json", None)
            entry["phases"] = json.loads(phases_json) if phases_json else None
            decoded.append(entry)
        return decoded

    def result(self, config_hash: str) -> Optional[ScenarioResult]:
        """The stored result for a config hash, if any (``ValueError`` or
        :class:`~repro.outcome.MalformedResultError` if its row does not decode)."""
        row = self._connection.execute(
            "SELECT result_json FROM results WHERE config_hash = ?", (config_hash,)
        ).fetchone()
        if row is None:
            return None
        return ScenarioResult.from_dict(json.loads(row["result_json"]))

    def metric_rows(self, campaign_id: str) -> List[Dict[str, Any]]:
        """One flat row per (completed point, scheme): axes + metric columns.

        The report layer's working set — every row carries the point's axis
        coordinates plus that scheme's scalar metrics, ready to filter,
        group and export.
        """
        rows = self._connection.execute(
            "SELECT p.point_index, p.name, p.config_hash, p.axes_json, "
            "m.scheme, m.metric, m.value "
            "FROM points p JOIN metrics m USING (config_hash) "
            "WHERE p.campaign_id = ? AND p.status = 'done' "
            "ORDER BY p.point_index, m.scheme, m.metric",
            (campaign_id,),
        )
        flattened: Dict[Tuple[int, str], Dict[str, Any]] = {}
        for row in rows:
            key = (row["point_index"], row["scheme"])
            entry = flattened.get(key)
            if entry is None:
                entry = {
                    "point_index": row["point_index"],
                    "point": row["name"],
                    "config_hash": row["config_hash"],
                    "scheme": row["scheme"],
                }
                entry.update(json.loads(row["axes_json"]))
                flattened[key] = entry
            entry[row["metric"]] = row["value"]
        return [flattened[key] for key in sorted(flattened)]

    def completion_stats(self, campaign_id: str) -> Dict[str, float]:
        """Throughput basis: done-point count and their summed wall-clock.

        ``campaign-status`` derives ``points_per_second`` and an ETA from
        these two numbers; both are zero for a campaign with no completed
        points yet.
        """
        row = self._connection.execute(
            "SELECT COUNT(*) AS done, COALESCE(SUM(elapsed_s), 0.0) AS elapsed "
            "FROM points WHERE campaign_id = ? AND status = 'done'",
            (campaign_id,),
        ).fetchone()
        return {"done": int(row["done"]), "elapsed_s": float(row["elapsed"])}

    def phase_totals(self, campaign_id: str) -> Dict[str, Any]:
        """Aggregate stored ``--profile`` phase timings across done points.

        Returns ``{"points": N, "totals": {phase: seconds}}`` summed over
        every completed point that carries a phase breakdown.  Empty when
        the campaign was drained without ``--profile`` (or the store
        predates the column).
        """
        try:
            rows = self._connection.execute(
                "SELECT phases_json FROM points "
                "WHERE campaign_id = ? AND status = 'done' "
                "AND phases_json IS NOT NULL",
                (campaign_id,),
            ).fetchall()
        except sqlite3.OperationalError:
            # A read-only view of an unmigrated store has no phases column.
            return {"points": 0, "totals": {}}
        totals: Dict[str, float] = {}
        for row in rows:
            for phase, seconds in json.loads(row["phases_json"]).items():
                totals[phase] = totals.get(phase, 0.0) + float(seconds)
        return {"points": len(rows), "totals": totals}

    def metric_names(self, campaign_id: str) -> List[str]:
        """Every metric recorded for a campaign (for input validation)."""
        rows = self._connection.execute(
            "SELECT DISTINCT m.metric FROM points p JOIN metrics m "
            "USING (config_hash) WHERE p.campaign_id = ? ORDER BY m.metric",
            (campaign_id,),
        )
        return [row["metric"] for row in rows]

    def canonical_dump(self, campaign_id: str) -> Dict[str, Any]:
        """A deterministic view of a campaign's stored state.

        Strips every wall-clock field (point timings, timestamps, leases,
        the per-step compute series inside results) so that an interrupted-
        and-resumed campaign — or one drained by N concurrent workers —
        compares bit-for-bit equal to an uninterrupted serial run.
        """
        campaign = self._connection.execute(
            "SELECT campaign_id, name, spec_json, num_points FROM campaigns "
            "WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        if campaign is None:
            raise ConfigurationError(f"campaign {campaign_id!r} is not in the store")
        points = self._connection.execute(
            "SELECT config_hash, point_index, name, axes_json, spec_json, "
            "status, error FROM points WHERE campaign_id = ? ORDER BY point_index",
            (campaign_id,),
        ).fetchall()
        result_rows = self._connection.execute(
            "SELECT p.config_hash, r.result_json FROM points p "
            "JOIN results r USING (config_hash) WHERE p.campaign_id = ?",
            (campaign_id,),
        )
        results: Dict[str, Any] = {
            row["config_hash"]: canonical_result_dict(json.loads(row["result_json"]))
            for row in result_rows
        }
        return {
            "campaign": dict(campaign),
            "points": [dict(row) for row in points],
            "results": results,
        }


__all__ = [
    "DEFAULT_BUSY_TIMEOUT_S",
    "STORE_SCHEMA_VERSION",
    "CampaignStore",
    "PointRecord",
    "canonical_result_dict",
]
