"""Background campaign execution for the scenario service.

A ``POST /campaigns`` must return immediately with the campaign id while
the grid drains in the background.  The :class:`JobManager` does exactly
what ``run-campaign`` does, but with threads instead of forked processes:
the submission thread runs the one prepare step
(:func:`~repro.campaign.run.prepare_campaign`: validate, register, adopt
shared results, reset stale errors, fix every worker's share), then a
supervisor thread runs the prepared drain's N workers
(:meth:`~repro.campaign.run.PreparedDrain.drain`), each opening its own
SQLite connection in its own thread.  The store's lease protocol
coordinates them; the service adds no coordination of its own.

Threads rather than processes because the service is a long-lived
multi-threaded program: forking one is famously unsafe (the child
inherits locks mid-flight), while the lease protocol was built precisely
so that *any* set of cooperating invocations — processes, threads, other
hosts on a shared file — drains one grid safely.  The GIL bounds the
speedup of ``workers > 1`` for pure-Python stages, but the NumPy kernels
release it, and status/report reads stay responsive throughout because
readers use ``read_only=True`` connections.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from .schemas import CampaignRequest, ServiceError

if TYPE_CHECKING:  # the runner loads the scenario stack; submit() imports it
    from ..campaign.run import PreparedDrain, WorkerTally

#: Job lifecycle states.
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class CampaignJob:
    """One submitted campaign drain and its live state.

    Attributes:
        campaign_id: The campaign's identity in the store.
        name: The campaign name.
        workers: How many lease-worker threads drain it.
        state: ``running`` → ``done``/``failed``.
        submitted_at: ``time.time`` of the submission.
        tallies: Per-worker :class:`~repro.campaign.run.WorkerTally`,
            filled in as workers finish.
        error: The first worker traceback, when ``state == "failed"``.
    """

    campaign_id: str
    name: str
    workers: int
    state: str = RUNNING
    submitted_at: float = field(default_factory=time.time)
    tallies: List[WorkerTally] = field(default_factory=list)
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (the ``job`` section of status payloads)."""
        payload: Dict[str, Any] = {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "workers": self.workers,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "executed": sum(tally.executed for tally in self.tallies),
            "failed": sum(tally.failed for tally in self.tallies),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobManager:
    """Submit, track and wait on background campaign drains.

    One instance per service process.  All mutation happens under one
    lock; worker threads are daemons, so an exiting service never hangs on
    a long campaign (the store's chunk transactions guarantee the next
    drain resumes cleanly from whatever was durable).
    """

    def __init__(self, store_path: Union[str, os.PathLike]):
        self.store_path = str(store_path)
        self._lock = threading.Lock()
        self._jobs: Dict[str, CampaignJob] = {}
        self._threads: Dict[str, threading.Thread] = {}

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, request: CampaignRequest) -> CampaignJob:
        """Register a campaign and start its background drain.

        The prepare step (option range checks, registration, result
        adoption, the once-per-drain error reset) happens synchronously so
        a bad option is a 400 and the campaign id — and a consistent store
        row — exist before the response is sent; execution happens on
        daemon threads.  Re-submitting a campaign that is already running
        is refused (409); re-submitting a finished one resumes it, exactly
        like re-invoking ``run-campaign``.
        """
        from ..campaign.run import prepare_campaign

        prepared = prepare_campaign(
            request.spec,
            self.store_path,
            workers=request.workers,
            chunk_size=request.chunk_size,
            max_points=request.max_points,
            lease_seconds=request.lease_seconds,
        )
        campaign_id = prepared.campaign_id
        with self._lock:
            existing = self._jobs.get(campaign_id)
            if existing is not None and existing.state == RUNNING:
                raise ServiceError(
                    409,
                    "campaign-running",
                    f"campaign {campaign_id[:16]} is already draining; "
                    "poll its status instead of resubmitting",
                )
            job = CampaignJob(
                campaign_id=campaign_id,
                name=prepared.name,
                workers=request.workers,
            )
            self._jobs[campaign_id] = job
            supervisor = threading.Thread(
                target=self._drain,
                args=(job, prepared),
                name=f"campaign-{campaign_id[:12]}",
                daemon=True,
            )
            self._threads[campaign_id] = supervisor
            supervisor.start()
        return job

    def _drain(self, job: CampaignJob, prepared: PreparedDrain) -> None:
        """Supervise one drain: run its workers on threads, finalise the job."""
        errors: List[str] = []

        def worker(index: int) -> None:
            try:
                tally = prepared.drain(index)
            except BaseException as error:  # noqa: BLE001 - recorded, not raised
                errors.append(f"{type(error).__name__}: {error}")
            else:
                with self._lock:
                    job.tallies.append(tally)

        if job.workers == 1:
            worker(0)
        else:
            threads = [
                threading.Thread(
                    target=worker,
                    args=(index,),
                    name=f"campaign-{job.campaign_id[:8]}-w{index}",
                    daemon=True,
                )
                for index in range(job.workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        with self._lock:
            if errors:
                job.state = FAILED
                job.error = "; ".join(errors)
            else:
                job.state = DONE

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def get(self, campaign_id: str) -> Optional[CampaignJob]:
        """The job submitted under *campaign_id* this process, if any."""
        with self._lock:
            return self._jobs.get(campaign_id)

    def jobs(self) -> List[CampaignJob]:
        """Every job this process has accepted, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.submitted_at)

    def wait(self, campaign_id: str, timeout: Optional[float] = None) -> bool:
        """Block until a job's supervisor finishes; ``True`` when it did."""
        with self._lock:
            thread = self._threads.get(campaign_id)
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()


__all__ = ["DONE", "FAILED", "RUNNING", "CampaignJob", "JobManager"]
