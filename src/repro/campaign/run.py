"""Resumable campaign execution against the results store.

:func:`run_campaign` expands a :class:`~repro.campaign.spec.CampaignSpec`
into its grid, registers it in the :class:`~repro.campaign.store.CampaignStore`
and executes only the points whose config hash has no stored result yet.
In-process execution follows one rule (:func:`_evaluate_groups`): the points
to run are cut into chunks, each chunk is grouped by
:func:`~repro.experiments.runner.batch_signature`, every group is evaluated
as one problem that computes its offline half — built stack, candidate
paths, REsPoNse plans — once, and every group's outcomes are persisted in a
**single transaction** before the next group starts.  Killing a run
therefore loses at most the group in flight (never part of one), and
re-invoking it completes exactly the missing points: the store ends up
bit-for-bit identical (modulo wall-clock fields) to an uninterrupted run,
and to a ``chunk_size=1`` drain in which every group is a single point.
``parallel=True`` instead fans points out over the sweep runner's ``fork``
pool (:func:`repro.experiments.runner.iter_outcome_chunks`), one transaction
per pool round.

Multi-worker drains
-------------------

Passing ``worker_id`` switches :func:`run_campaign` into **cooperative
worker mode**: instead of computing a pending list up-front, the worker
repeatedly claims small chunks of points from the store under a lease
(:meth:`~repro.campaign.store.CampaignStore.claim_points`), evaluates each
claim by the same rule while heartbeating the lease, and commits each group
atomically.  N such workers — separate invocations on separate terminals,
or the :func:`run_campaign_workers` convenience that forks them — drain
one grid together with no coordination beyond the store itself.  A worker
that crashes simply stops renewing its lease; its points become claimable
again once the lease expires, so the survivors finish the grid and the
final store is bit-identical to a serial run.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from ..exceptions import ConfigurationError
from ..experiments.runner import (
    PointOutcome,
    execute_scenario_batch,
    iter_outcome_chunks,
    plan_point_batches,
    suggest_chunk_size,
)
from ..obs import trace
from ..scenario.engine import ScenarioResult
from .spec import CampaignPoint, CampaignSpec
from .store import CampaignStore, PointRecord

_LOGGER = logging.getLogger(__name__)

#: How long a worker's claim on a batch of points lasts without renewal.
#: Leases are renewed after every point execution, so this only needs to
#: exceed the slowest single point by a margin.
DEFAULT_LEASE_SECONDS = 60.0

#: How long an idle worker sleeps before re-checking for claimable points
#: (it only waits while peers still hold live leases on pending points).
DEFAULT_POLL_SECONDS = 0.2


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
        parallel: Whether the run fanned out over worker processes.
        workers: How many cooperating worker processes drained the grid
            (1 for plain and single-worker invocations).
        worker_id: This invocation's worker identity in the lease
            protocol, ``None`` outside worker mode.
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
    parallel: bool = False
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
            "parallel": self.parallel,
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


def _outcome_record(
    point: CampaignPoint,
    outcome: PointOutcome,
    phases: Optional[Dict[str, float]] = None,
) -> PointRecord:
    """Turn one executed outcome into its persistable record.

    Besides passing failures through, this guards the store's resume
    bookkeeping: a result whose config hash disagrees with the expanded
    point's would silently corrupt the idempotency key, so it is recorded
    as a failure instead.
    """
    if not outcome.ok:
        return PointRecord(
            point=point,
            error=outcome.error,
            elapsed_s=outcome.elapsed_s,
            phases=phases,
        )
    result = outcome.value
    if not isinstance(result, ScenarioResult):
        result = ScenarioResult.from_dict(result)
    if result.config_hash != point.config_hash:
        message = (
            f"result config hash {result.config_hash} does not match "
            f"the expanded point's {point.config_hash}"
        )
        return PointRecord(point=point, error=message, elapsed_s=outcome.elapsed_s)
    return PointRecord(
        point=point, result=result, elapsed_s=outcome.elapsed_s, phases=phases
    )


def _shared_phases(
    collector: trace.PhaseCollector, elapsed_s: float, count: int
) -> Dict[str, float]:
    """A group's phase totals split evenly across its points.

    Mirrors the group's ``elapsed_s``-share semantics: each point carries
    ``1/count`` of every phase, so per-point rows still sum to the group
    (a singleton group carries its own phases whole).
    """
    share = max(1, count)
    return {
        phase: seconds / share
        for phase, seconds in collector.phases(elapsed_s).items()
    }


def _evaluate_groups(
    points: Sequence[CampaignPoint],
    sweep_cache_dir: Optional[Union[str, os.PathLike]],
    profile: bool,
) -> Iterator[List[PointRecord]]:
    """The one in-process drain rule: evaluate *points* group by group.

    The points are grouped by
    :func:`~repro.experiments.runner.plan_point_batches` and every group
    runs as one shared evaluation
    (:func:`~repro.experiments.runner.execute_scenario_batch`, which falls
    back to per-point execution on any group failure); each group's records
    are yielded as soon as it finishes so the caller can commit it
    atomically.  A group of one is per-point execution.
    """
    sweep_points = [point.spec.sweep_point() for point in points]
    for group in plan_point_batches(sweep_points):
        group_points = [sweep_points[index] for index in group]
        phases = None
        if profile:
            collector = trace.PhaseCollector()
            group_start = time.perf_counter()
            with trace.collect(collector):
                outcomes = execute_scenario_batch(group_points, sweep_cache_dir)
            phases = _shared_phases(
                collector, time.perf_counter() - group_start, len(group)
            )
        else:
            outcomes = execute_scenario_batch(group_points, sweep_cache_dir)
        yield [
            _outcome_record(points[index], outcome, phases=phases)
            for index, outcome in zip(group, outcomes, strict=True)
        ]


def _commit(
    store: CampaignStore,
    campaign_id: str,
    summary: CampaignRunSummary,
    records: List[PointRecord],
) -> None:
    """Tally one group's (or pool chunk's) records and persist them atomically.

    One transaction per call: a kill between rows never leaves a partially
    persisted group behind.
    """
    for record in records:
        summary.executed += 1
        if record.error is not None:
            summary.failed += 1
            summary.errors.append(
                f"{record.point.name}: {record.error.strip().splitlines()[-1]}"
            )
            _LOGGER.warning(
                "campaign point %r failed:\n%s", record.point.name, record.error
            )
    store.record_chunk(campaign_id, records)


def _drain_as_worker(
    store: CampaignStore,
    campaign_id: str,
    by_hash: Dict[str, CampaignPoint],
    summary: CampaignRunSummary,
    worker_id: str,
    lease_seconds: float,
    chunk_size: int,
    max_points: Optional[int],
    sweep_cache_dir: Optional[Union[str, os.PathLike]],
    poll_seconds: float,
    profile: bool = False,
) -> None:
    """The cooperative drain loop of one lease-holding worker.

    Claim up to *chunk_size* points → evaluate the claim group by group
    (:func:`_evaluate_groups`), committing each group in one transaction and
    renewing the lease on what is left of the claim → repeat.  When nothing
    is claimable but pending points remain, they are leased to peers: the
    worker polls until they complete, error out, or their leases expire
    (the crash-recovery path, where this worker reclaims them).
    """
    while True:
        budget = None if max_points is None else max_points - summary.executed
        if budget is not None and budget <= 0:
            break
        limit = chunk_size if budget is None else min(chunk_size, budget)
        claimed = store.claim_points(campaign_id, worker_id, limit, lease_seconds)
        if not claimed:
            if store.status_counts(campaign_id)["pending"] == 0:
                break
            # Pending points exist but are leased to live peers.  Wait for
            # them: they will finish, fail, or stop renewing (crash), and
            # in every case this loop makes progress next iteration.
            time.sleep(poll_seconds)
            continue
        try:
            for records in _evaluate_groups(
                [by_hash[config_hash] for config_hash in claimed],
                sweep_cache_dir,
                profile,
            ):
                _commit(store, campaign_id, summary, records)
                # Heartbeat between groups: the lease only expires if this
                # worker actually stops making progress.
                store.renew_leases(campaign_id, worker_id, lease_seconds)
        except BaseException:
            # Interrupted mid-claim: the group in flight persisted nothing
            # (record_chunk is atomic), so hand the remaining leases
            # straight back instead of making peers wait out the expiry.
            store.release_leases(campaign_id, worker_id)
            raise


def run_campaign(
    spec: Any,
    store_path: Union[str, os.PathLike],
    parallel: bool = False,
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
    max_points: Optional[int] = None,
    sweep_cache_dir: Optional[Union[str, os.PathLike]] = None,
    worker_id: Optional[str] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    reset_errors: bool = True,
    profile: bool = False,
) -> CampaignRunSummary:
    """Execute (or resume) a campaign against a results store.

    In-process execution follows one rule: the points to run are cut into
    chunks of *chunk_size*, each chunk is grouped by
    :func:`~repro.experiments.runner.batch_signature` (points declaring the
    same topology, power and routing), every group is evaluated as one
    problem that shares its offline half — built stack, candidate paths,
    REsPoNse plans, repeated solves — and commits in one transaction.
    Results are bit-identical to per-point execution (a chunk of one).

    Args:
        spec: A :class:`CampaignSpec` or its dict form.
        store_path: The SQLite store file (created if missing).
        parallel: Fan points out over a ``fork`` process pool instead
            (plain mode only — workers execute their claims in-process).
        processes: Pool size (default: CPU count, bounded by the grid).
        chunk_size: Points taken up per chunk (per claim in worker mode) —
            the one durability and memory bound: a kill loses at most the
            group in flight, and a chunk's largest group is what stays
            resident until its commit.  Defaults to the whole pending list
            in a plain drain, to one point per claim in worker mode
            (:func:`run_campaign_workers` passes a claim-spreading size
            computed by :func:`~repro.experiments.runner.suggest_chunk_size`)
            and to the pool size in parallel, where a chunk is what one
            pool round persists.
        max_points: Execute at most this many new points, then return with
            ``remaining > 0`` — a bounded slice of a long campaign (and the
            deterministic stand-in for a killed run in tests).
        worker_id: Join the campaign as one cooperative worker under this
            identity: claim points under a lease instead of executing a
            precomputed pending list, so N invocations with distinct
            worker ids drain one grid together (see
            :func:`run_campaign_workers` for the fork-them-all wrapper).
        lease_seconds: Worker mode: how long a claim lasts without renewal
            (renewed after every group).
        poll_seconds: Worker mode: idle re-check interval while peers hold
            the remaining pending points.
        reset_errors: Worker mode: flip unleased ``error`` points back to
            ``pending`` at startup so previous invocations' failures are
            retried.  :func:`run_campaign_workers` performs this reset
            once before forking and passes ``False`` here — otherwise a
            late-starting worker could flip a point a fast peer *just*
            failed back to pending and retry it within the same fleet
            invocation.
        profile: Collect a phase-timing breakdown
            (build/calibrate/solve/allocate/overhead) and persist it on
            the point rows (``phases_json``) for ``campaign-report
            --timings``.  In-process execution only — mutually exclusive
            with ``parallel``.  A group's phase totals are split evenly
            across its points, mirroring the ``elapsed_s`` share.

    Returns:
        A :class:`CampaignRunSummary`.  Point failures are recorded in the
        store (status ``error``) and counted, never raised; re-invoking the
        campaign retries them.
    """
    if worker_id is not None and parallel:
        raise ConfigurationError(
            "worker mode executes its claims in-process; drop parallel=True "
            "and start more workers instead"
        )
    if profile and parallel:
        raise ConfigurationError(
            "profiling instruments in-process execution; drop parallel=True "
            "(combine profile with workers instead)"
        )
    if max_points is not None and max_points < 0:
        raise ConfigurationError(f"max_points must be >= 0, got {max_points}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if lease_seconds <= 0:
        # A non-positive lease is born expired: every peer would claim the
        # same points and the protocol degrades to duplicate work.
        raise ConfigurationError(f"lease_seconds must be > 0, got {lease_seconds}")
    campaign = _coerce_campaign(spec)
    points = campaign.expand()
    with CampaignStore(store_path, read_only=False) as store:
        campaign_id = store.register_campaign(campaign, points)
        adopted = store.adopt_existing_results(campaign_id)
        if worker_id is not None and reset_errors:
            # Retry earlier invocations' failures, exactly like the plain
            # resume path re-executes error points.
            store.reset_error_points(campaign_id)
        statuses = store.point_statuses(campaign_id)
        pending: List[CampaignPoint] = [
            point for point in points if statuses.get(point.config_hash) != "done"
        ]
        summary = CampaignRunSummary(
            campaign_id=campaign_id,
            name=campaign.name,
            store_path=str(store.path),
            total_points=len(points),
            completed_before=len(points) - len(pending),
            adopted=adopted,
            parallel=parallel,
            worker_id=worker_id,
        )
        if worker_id is None and max_points is not None:
            pending = pending[:max_points]
        start = time.perf_counter()
        if worker_id is not None:
            _drain_as_worker(
                store,
                campaign_id,
                {point.config_hash: point for point in points},
                summary,
                worker_id=worker_id,
                lease_seconds=lease_seconds,
                chunk_size=1 if chunk_size is None else chunk_size,
                max_points=max_points,
                sweep_cache_dir=sweep_cache_dir,
                poll_seconds=poll_seconds,
                profile=profile,
            )
        elif parallel:
            by_hash = {point.config_hash: point for point in pending}
            for chunk in iter_outcome_chunks(
                [point.spec.sweep_point() for point in pending],
                cache_dir=sweep_cache_dir,
                parallel=True,
                processes=processes,
                chunk_size=chunk_size,
            ):
                _commit(
                    store,
                    campaign_id,
                    summary,
                    [
                        _outcome_record(by_hash[outcome.point.config_hash()], outcome)
                        for outcome in chunk
                    ],
                )
        else:
            size = max(1, len(pending)) if chunk_size is None else chunk_size
            for chunk_start in range(0, len(pending), size):
                for records in _evaluate_groups(
                    pending[chunk_start : chunk_start + size], sweep_cache_dir, profile
                ):
                    _commit(store, campaign_id, summary, records)
        summary.elapsed_s = time.perf_counter() - start
        counts = store.status_counts(campaign_id)
        summary.remaining = counts["total"] - counts["done"]
        return summary


def _worker_process_entry(args: tuple) -> Dict[str, Any]:
    """Run one forked worker; module-level so the pool can dispatch it."""
    (
        spec_dict,
        store_path,
        worker_id,
        lease_seconds,
        chunk_size,
        max_points,
        sweep_cache_dir,
        poll_seconds,
        profile,
    ) = args
    summary = run_campaign(
        spec_dict,
        store_path=store_path,
        chunk_size=chunk_size,
        max_points=max_points,
        sweep_cache_dir=sweep_cache_dir,
        worker_id=worker_id,
        lease_seconds=lease_seconds,
        poll_seconds=poll_seconds,
        profile=profile,
        # The fleet launcher already reset error points once, before any
        # worker started; resetting again here would race against peers
        # that have just re-failed a point.
        reset_errors=False,
    )
    return summary.to_dict()


def run_campaign_workers(
    spec: Any,
    store_path: Union[str, os.PathLike],
    workers: int,
    chunk_size: Optional[int] = None,
    max_points: Optional[int] = None,
    sweep_cache_dir: Optional[Union[str, os.PathLike]] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    profile: bool = False,
) -> CampaignRunSummary:
    """Fork N cooperative workers that drain one campaign together.

    The campaign is registered once up-front (so no worker pays the
    expansion race), then *workers* processes each run
    :func:`run_campaign` in worker mode against the shared store.  The
    returned summary aggregates their work; ``elapsed_s`` is the
    wall-clock time of the whole drain, so ``points_per_second`` measures
    the fleet, not one worker.

    Without the ``fork`` start method (or with ``workers=1``) the workers
    run sequentially in-process — same lease protocol, no concurrency.

    Args:
        spec: A :class:`CampaignSpec` or its dict form.
        store_path: The shared SQLite store.
        workers: How many worker processes to fork.
        chunk_size: Points per claim — each claim is grouped and evaluated
            as :func:`run_campaign` describes (default: a claim-spreading
            size from the pending-point count).
        max_points: Global bound on newly executed points, split across
            the workers.
        sweep_cache_dir: Optional per-point pickle cache shared by all
            workers (safe: cache publishes are atomic).
        lease_seconds: Lease duration without renewal.
        poll_seconds: Idle re-check interval.
        profile: Each worker records per-point phase timings into the
            store (see :func:`run_campaign`).

    Returns:
        The aggregated :class:`CampaignRunSummary` (``workers`` set).
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if lease_seconds <= 0:
        raise ConfigurationError(f"lease_seconds must be > 0, got {lease_seconds}")
    campaign = _coerce_campaign(spec)
    points = campaign.expand()
    # Register (and adopt shared results) before forking, with the store
    # closed again afterwards: SQLite connections must never cross a fork.
    # Error points are also reset exactly once, here, so the retry of
    # previous invocations' failures cannot race a late-starting worker
    # against a fast peer's fresh failure.
    with CampaignStore(store_path, read_only=False) as store:
        campaign_id = store.register_campaign(campaign, points)
        adopted = store.adopt_existing_results(campaign_id)
        store.reset_error_points(campaign_id)
        counts = store.status_counts(campaign_id)
    pending_count = counts["total"] - counts["done"]
    size = (
        chunk_size
        if chunk_size is not None
        else suggest_chunk_size(pending_count, workers=workers)
    )
    if size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {size}")
    # Split a global max_points bound into per-worker quotas.
    quotas: List[Optional[int]] = [max_points] * workers
    if max_points is not None:
        quotas = [
            max_points // workers + (1 if index < max_points % workers else 0)
            for index in range(workers)
        ]
    run_tag = os.getpid()
    worker_args = [
        (
            campaign.to_dict(),
            str(store_path),
            f"worker-{run_tag}-{index}",
            lease_seconds,
            size,
            quotas[index],
            str(sweep_cache_dir) if sweep_cache_dir is not None else None,
            poll_seconds,
            profile,
        )
        for index in range(workers)
    ]
    start = time.perf_counter()
    if workers > 1 and "fork" in get_all_start_methods():
        context = get_context("fork")
        with context.Pool(processes=workers) as pool:
            worker_summaries = pool.map(_worker_process_entry, worker_args)
    else:
        worker_summaries = [_worker_process_entry(args) for args in worker_args]
    elapsed_s = time.perf_counter() - start

    summary = CampaignRunSummary(
        campaign_id=campaign_id,
        name=campaign.name,
        store_path=str(store_path),
        total_points=len(points),
        completed_before=counts["done"],
        adopted=adopted,
        executed=sum(entry["executed"] for entry in worker_summaries),
        failed=sum(entry["failed"] for entry in worker_summaries),
        elapsed_s=elapsed_s,
        workers=workers,
        errors=[error for entry in worker_summaries for error in entry["errors"]],
    )
    # A pure read: the fleet has exited, so a read-only WAL connection is
    # enough (and can never stall a late writer).
    with CampaignStore(store_path, read_only=True) as store:
        final = store.status_counts(campaign_id)
    summary.remaining = final["total"] - final["done"]
    return summary


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_POLL_SECONDS",
    "CampaignRunSummary",
    "run_campaign",
    "run_campaign_workers",
]
