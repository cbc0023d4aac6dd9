"""Resumable campaign execution against the results store.

There is one way to execute a campaign's points — a lease worker's drain
(:meth:`PreparedDrain.drain`): claim pending points from the
:class:`~repro.campaign.store.CampaignStore` under a lease → cut the claim
into groups that declare the same topology, power and routing
(:func:`~repro.scenario.engine.group_signature`) → build every group's
stack once and run its points on it one at a time, renewing the claim's
lease between them as it ages → persist the group's outcomes in a **single
transaction** → claim again.  What the points compute — candidate paths,
REsPoNse plans, GreenTE solves, ECMP evaluations — the process keeps per
network content, whatever group asks.
Killing a drain therefore loses at most the group in flight (never part of
one), and re-invoking it completes exactly the missing points: the store
ends up bit-for-bit identical (modulo wall-clock fields) to an
uninterrupted run, and to a ``chunk_size=1`` drain in which every group is
a single point.

:func:`run_campaign` is the one entry.  Its prepare step
(:func:`prepare_campaign`) expands the grid, registers it, adopts results
other campaigns already stored under the same config hash and flips earlier
invocations' failures back to pending — exactly once, whatever the number
of workers.  Then one in-process worker runs the drain, or ``workers`` of
them are forked; the service's job manager hands the same prepared drain
to its drain process, which runs the workers on threads.  Workers coordinate through the store alone, so separate
invocations (``worker_id``) on other terminals or hosts sharing the file
join the same drain.  A worker that crashes simply stops renewing its
lease; its points become claimable again once the lease expires, so the
survivors — or the next invocation — finish the grid.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..exceptions import ConfigurationError
from ..obs import metrics, trace
from ..outcome import ScenarioResult
from ..scenario.engine import build_scenario_group, group_signature, run_built_scenario
from .spec import CampaignPoint, CampaignSpec
from .store import DEFAULT_LEASE_SECONDS, CampaignStore, PointRecord

_LOGGER = logging.getLogger(__name__)

_BATCH_GROUP_FALLBACKS = metrics.counter(
    "repro_batch_group_fallbacks_total",
    "Batched scenario groups that fell back to per-point execution",
)

#: How long an idle worker sleeps before re-checking for claimable points
#: (it only waits while peers still hold live leases on pending points).
_POLL_SECONDS = 0.2


@dataclass
class CampaignRunSummary:
    """What one :func:`run_campaign` invocation did.

    Attributes:
        campaign_id: The campaign's stable identity in the store.
        name: The campaign name.
        store_path: Where the results store lives.
        total_points: Size of the expanded grid.
        completed_before: Points already ``done`` when this run started
            (the resume skip set).
        adopted: Points marked done because another campaign had already
            stored a result under the same config hash.
        executed: Points actually run by this invocation.
        failed: How many of the executed points errored (recorded, not
            raised).
        remaining: Points still not done when this run returned (a
            ``max_points`` bound, failures, or points other workers still
            hold).
        elapsed_s: Wall-clock time spent executing points.
        workers: How many workers this invocation drained the grid with
            (1 in-process, more forked).
        worker_id: The identity this invocation joined a shared drain
            under, ``None`` when the worker ids were generated.
    """

    campaign_id: str
    name: str
    store_path: str
    total_points: int
    completed_before: int = 0
    adopted: int = 0
    executed: int = 0
    failed: int = 0
    remaining: int = 0
    elapsed_s: float = 0.0
    workers: int = 1
    worker_id: Optional[str] = None
    errors: List[str] = field(default_factory=list)

    @property
    def points_per_second(self) -> float:
        """Throughput of this invocation's executed points."""
        if self.executed == 0 or self.elapsed_s <= 0:
            return 0.0
        return self.executed / self.elapsed_s

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (for ``run-campaign --json`` and tooling)."""
        return {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "store_path": self.store_path,
            "total_points": self.total_points,
            "completed_before": self.completed_before,
            "adopted": self.adopted,
            "executed": self.executed,
            "failed": self.failed,
            "remaining": self.remaining,
            "elapsed_s": self.elapsed_s,
            "points_per_second": self.points_per_second,
            "workers": self.workers,
            "worker_id": self.worker_id,
            "errors": list(self.errors),
        }


def _coerce_campaign(spec: Any) -> CampaignSpec:
    if isinstance(spec, CampaignSpec):
        return spec
    if isinstance(spec, Mapping):
        return CampaignSpec.from_dict(spec)
    raise ConfigurationError(
        f"expected a CampaignSpec or a campaign spec mapping, got "
        f"{type(spec).__qualname__}"
    )


@dataclass
class WorkerTally:
    """What one worker's drain executed (failures are recorded, not raised)."""

    executed: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def claim_size(
    pending: int, workers: Optional[int], chunk_size: Optional[int] = None
) -> int:
    """How many points one claim takes — the one default, from what is known.

    An explicit *chunk_size* always wins: it is the durability and memory
    bound.  Otherwise a launcher that knows its fleet splits what is pending
    evenly, ``ceil(pending / workers)`` — a lone drain claims the whole
    pending list, so its groups are as large as the grid allows — and a
    worker that joins under its own id (``workers is None``: the fleet's
    size is unknown) claims one point at a time, leaving the rest to
    whoever else joins.
    """
    if chunk_size is not None:
        return chunk_size
    if workers is None:
        return 1
    return max(1, -(-pending // workers))


def _plan_groups(points: Sequence[CampaignPoint]) -> List[List[CampaignPoint]]:
    """Partition a claim into the groups that each share one built stack.

    Points sharing a :func:`~repro.scenario.engine.group_signature` land in
    one group; a point with none (an eventful scenario) is a group of one.
    Groups are ordered by first occurrence and keep grid order inside, so a
    drain visits points in the same order whatever the claim size.
    """
    groups: Dict[Any, List[CampaignPoint]] = {}
    for point in points:
        signature = group_signature(point.spec)
        key = ("solo", point.index) if signature is None else ("group", signature)
        groups.setdefault(key, []).append(point)
    return list(groups.values())


def _run_group(
    points: Sequence[CampaignPoint], heartbeat: Callable[[], Any]
) -> List[ScenarioResult]:
    """Build a group's scenarios as one stack and run them one at a time,
    calling *heartbeat* before each."""
    results = []
    for built in build_scenario_group([point.spec for point in points]):
        heartbeat()
        results.append(run_built_scenario(built))
    return results


def _group_records(
    points: Sequence[CampaignPoint], heartbeat: Callable[[], Any]
) -> List[PointRecord]:
    """Evaluate one group, isolating failures to the points that caused them.

    Any failure inside a group of several (one bad spec, a scheme error)
    re-runs its points as groups of one, so every point keeps its own
    traceback; a group of one that fails is that point's ``error`` record.
    A group's wall-clock is split evenly across its points.
    """
    start = time.perf_counter()
    try:
        results = _run_group(points, heartbeat)
    except Exception:
        if len(points) == 1:
            return [
                PointRecord(
                    point=points[0],
                    error=traceback.format_exc(),
                    elapsed_s=time.perf_counter() - start,
                )
            ]
        _BATCH_GROUP_FALLBACKS.inc()
        return [record for point in points for record in _group_records([point], heartbeat)]
    share = (time.perf_counter() - start) / len(points)
    records = []
    for point, result in zip(points, results, strict=True):
        if result.config_hash == point.config_hash:
            records.append(PointRecord(point=point, result=result, elapsed_s=share))
        else:
            # Guards the store's resume bookkeeping: a result filed under
            # another hash would silently corrupt the idempotency key.
            message = (
                f"result config hash {result.config_hash} does not match "
                f"the expanded point's {point.config_hash}"
            )
            records.append(PointRecord(point=point, error=message, elapsed_s=share))
    return records


def _evaluate_group(
    points: Sequence[CampaignPoint], profile: bool, heartbeat: Callable[[], Any]
) -> List[PointRecord]:
    """One group's persistable records, with its phase timings when profiled.

    A group's phase totals are split evenly across its points, mirroring
    the ``elapsed_s`` share: per-point rows still sum to the group, and a
    group of one carries its own phases whole.
    """
    if not profile:
        return _group_records(points, heartbeat)
    collector = trace.PhaseCollector()
    start = time.perf_counter()
    with trace.collect(collector):
        records = _group_records(points, heartbeat)
    totals = collector.phases(time.perf_counter() - start)
    phases = {phase: seconds / len(points) for phase, seconds in totals.items()}
    return [dataclasses.replace(record, phases=phases) for record in records]


def _commit(
    store: CampaignStore,
    campaign_id: str,
    tally: WorkerTally,
    records: List[PointRecord],
) -> None:
    """Tally one group's records and persist them atomically.

    One transaction per call: a kill between rows never leaves a partially
    persisted group behind.
    """
    for record in records:
        tally.executed += 1
        if record.error is not None:
            tally.failed += 1
            tally.errors.append(
                f"{record.point.name}: {record.error.strip().splitlines()[-1]}"
            )
            _LOGGER.warning(
                "campaign point %r failed:\n%s", record.point.name, record.error
            )
    store.record_chunk(campaign_id, records)


@dataclass(frozen=True)
class PreparedDrain:
    """A campaign registered in its store, with every worker's share fixed.

    What :func:`prepare_campaign` hands to a launcher: :func:`run_campaign`
    calls :meth:`drain` in-process or from forked children, the service's
    job manager pickles it to its drain process, which calls it from
    threads — that choice is the only difference between them.

    Attributes:
        store_path: Where the results store lives.
        campaign_id: The campaign's stable identity in the store.
        name: The campaign name.
        points: The expanded grid.
        completed_before: Points already ``done`` after the prepare step
            (the resume skip set, adopted results included).
        adopted: Points marked done because another campaign had already
            stored a result under the same config hash.
        worker_ids: One lease identity per worker.
        quotas: Per worker, how many new points it may execute (``None``:
            no bound) — a ``max_points`` bound split across the workers.
        claim_size: Points per claim (see :func:`claim_size`).
        lease_seconds: How long a claim lasts without renewal.
        profile: Whether workers record phase timings on the point rows.
    """

    store_path: str
    campaign_id: str
    name: str
    points: List[CampaignPoint]
    completed_before: int
    adopted: int
    worker_ids: List[str]
    quotas: List[Optional[int]]
    claim_size: int
    lease_seconds: float
    profile: bool

    def drain(self, index: int) -> WorkerTally:
        """Run worker *index*: claim → group → evaluate → commit.

        The worker opens its own store connection (one per process or
        thread) and never registers or resets anything: the prepare step
        did, once.  When nothing is claimable but pending points remain,
        they are leased to peers: the worker polls until they complete,
        error out, or their leases expire (the crash-recovery path, where
        this worker takes them over).  Before each point the worker renews
        its leases once a quarter of the lease has passed since the claim or
        the last renewal, so a lease only expires when one point takes three
        quarters of it or the worker stops making progress.
        """
        worker_id = self.worker_ids[index]
        quota = self.quotas[index]
        by_hash = {point.config_hash: point for point in self.points}
        tally = WorkerTally()
        with CampaignStore(self.store_path, read_only=False) as store:

            def heartbeat() -> None:
                nonlocal renewed
                if time.monotonic() - renewed >= self.lease_seconds / 4:
                    store.renew_leases(self.campaign_id, worker_id, self.lease_seconds)
                    renewed = time.monotonic()

            while quota is None or tally.executed < quota:
                limit = self.claim_size
                if quota is not None:
                    limit = min(limit, quota - tally.executed)
                renewed = time.monotonic()
                claimed = store.claim_points(
                    self.campaign_id, worker_id, limit, self.lease_seconds
                )
                if not claimed:
                    if store.status_counts(self.campaign_id)["pending"] == 0:
                        break
                    # Pending points exist but are leased to live peers.
                    # Wait for them: they will finish, fail, or stop renewing
                    # (crash), and in every case the next claim makes progress.
                    time.sleep(_POLL_SECONDS)
                    continue
                try:
                    for group in _plan_groups([by_hash[key] for key in claimed]):
                        _commit(
                            store,
                            self.campaign_id,
                            tally,
                            _evaluate_group(group, self.profile, heartbeat),
                        )
                except BaseException:
                    # Interrupted mid-claim: the group in flight persisted
                    # nothing (record_chunk is atomic), so hand the remaining
                    # leases straight back instead of making peers wait out
                    # the expiry.
                    store.release_leases(self.campaign_id, worker_id)
                    raise
        return tally


def prepare_campaign(
    spec: Any,
    store_path: Union[str, os.PathLike],
    *,
    workers: int = 1,
    worker_id: Optional[str] = None,
    chunk_size: Optional[int] = None,
    max_points: Optional[int] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    profile: bool = False,
) -> PreparedDrain:
    """Validate the options, register the campaign and fix every worker's share.

    The once-per-invocation half of :func:`run_campaign` (which documents
    the arguments).  Registration, result adoption and the retry of earlier
    invocations' failures happen here and nowhere else — a worker that
    reset ``error`` points itself could flip a point a fast peer *just*
    failed back to pending and retry it within the same drain — and the
    store is closed again before any worker starts: SQLite connections
    must never cross a fork.

    Raises:
        ConfigurationError: On an out-of-range option, ``worker_id``
            combined with ``workers > 1``, or an invalid spec.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if worker_id is not None and workers > 1:
        raise ConfigurationError(
            "workers and worker_id are mutually exclusive: workers forks a "
            "fleet under generated ids, worker_id joins a drain as one worker"
        )
    if max_points is not None and max_points < 0:
        raise ConfigurationError(f"max_points must be >= 0, got {max_points}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if lease_seconds <= 0:
        raise ConfigurationError(
            f"lease_seconds must be > 0, got {lease_seconds:g} (a non-positive "
            "lease is born expired, so every worker would claim the same points)"
        )
    campaign = _coerce_campaign(spec)
    points = campaign.expand()
    with CampaignStore(store_path, read_only=False) as store:
        campaign_id = store.register_campaign(campaign, points)
        adopted = store.adopt_existing_results(campaign_id)
        store.reset_error_points(campaign_id)
        done = store.status_counts(campaign_id)["done"]
    quotas: List[Optional[int]] = [max_points] * workers
    if max_points is not None:
        quotas = [
            max_points // workers + (1 if index < max_points % workers else 0)
            for index in range(workers)
        ]
    return PreparedDrain(
        store_path=str(store_path),
        campaign_id=campaign_id,
        name=campaign.name,
        points=points,
        completed_before=done,
        adopted=adopted,
        worker_ids=(
            [worker_id]
            if worker_id is not None
            else [f"worker-{os.getpid()}-{index}" for index in range(workers)]
        ),
        quotas=quotas,
        claim_size=claim_size(
            len(points) - done, None if worker_id is not None else workers, chunk_size
        ),
        lease_seconds=lease_seconds,
        profile=profile,
    )


def run_campaign(
    spec: Any,
    store_path: Union[str, os.PathLike],
    *,
    workers: int = 1,
    worker_id: Optional[str] = None,
    chunk_size: Optional[int] = None,
    max_points: Optional[int] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    profile: bool = False,
) -> CampaignRunSummary:
    """Execute (or resume) a campaign against a results store.

    Every point runs through the lease worker's drain (see the module
    docstring): claims are grouped by topology, power and routing, every
    group's points run on one built stack and the group commits in one
    transaction.  Results are bit-identical to per-point execution
    (``chunk_size=1``) whatever the number of workers.  Points a live peer
    holds under a lease are left to it: the drain waits for them and takes
    them over only once the lease has expired.

    Args:
        spec: A :class:`CampaignSpec` or its dict form.
        store_path: The SQLite store file (created if missing).
        workers: How many workers drain the grid: one runs in-process, more
            are forked and drain it together (without the ``fork`` start
            method they run one after another in-process — same protocol,
            no concurrency).
        worker_id: Join the campaign as one cooperative worker under this
            identity, so N invocations with distinct ids — on several
            terminals, or hosts sharing the store file — drain one grid
            together.  Mutually exclusive with ``workers > 1``.
        chunk_size: Points per claim — the one durability and memory bound:
            a kill loses at most the group in flight, and a claim's largest
            group is what stays resident until its commit.  Default: see
            :func:`claim_size`.
        max_points: Execute at most this many new points (split across the
            workers), then return with ``remaining > 0`` — a bounded slice
            of a long campaign (and the deterministic stand-in for a killed
            run in tests).
        lease_seconds: How long a claim lasts without renewal (renewed
            before a point once a quarter of it has passed).
        profile: Collect a phase-timing breakdown
            (build/calibrate/solve/allocate/overhead) and persist it on
            the point rows (``phases_json``) for ``campaign-report
            --timings``.

    Returns:
        A :class:`CampaignRunSummary`; ``elapsed_s`` is the wall-clock of
        the whole drain, so ``points_per_second`` measures the fleet, not
        one worker.  Point failures are recorded in the store (status
        ``error``) and counted, never raised; re-invoking the campaign
        retries them.
    """
    prepared = prepare_campaign(
        spec,
        store_path,
        workers=workers,
        worker_id=worker_id,
        chunk_size=chunk_size,
        max_points=max_points,
        lease_seconds=lease_seconds,
        profile=profile,
    )
    start = time.perf_counter()
    if workers > 1 and "fork" in get_all_start_methods():
        with get_context("fork").Pool(workers) as pool:
            tallies = pool.map(prepared.drain, range(workers))
    else:
        tallies = [prepared.drain(index) for index in range(workers)]
    elapsed_s = time.perf_counter() - start
    # A pure read: every worker has exited, so a read-only WAL connection
    # is enough (and can never stall a late writer).
    with CampaignStore(store_path, read_only=True) as store:
        counts = store.status_counts(prepared.campaign_id)
    return CampaignRunSummary(
        campaign_id=prepared.campaign_id,
        name=prepared.name,
        store_path=prepared.store_path,
        total_points=len(prepared.points),
        completed_before=prepared.completed_before,
        adopted=prepared.adopted,
        executed=sum(tally.executed for tally in tallies),
        failed=sum(tally.failed for tally in tallies),
        remaining=counts["total"] - counts["done"],
        elapsed_s=elapsed_s,
        workers=workers,
        worker_id=worker_id,
        errors=[error for tally in tallies for error in tally.errors],
    )


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "CampaignRunSummary",
    "PreparedDrain",
    "WorkerTally",
    "claim_size",
    "prepare_campaign",
    "run_campaign",
]
