"""Background campaign execution for the scenario service.

A ``POST /campaigns`` must return immediately with the campaign id while
the grid drains in the background.  The :class:`JobManager` does exactly
what the CLI's worker fleet does, but with threads instead of forked
processes: the submission thread registers the campaign in the store
(adopting shared results and resetting stale errors once, exactly like
:func:`~repro.campaign.run.run_campaign_workers` does pre-fork), then a
supervisor thread starts N cooperative lease workers — each one a plain
:func:`~repro.campaign.run.run_campaign` invocation in worker mode, each
opening its own SQLite connection in its own thread.  The store's lease
protocol coordinates them; the service adds no coordination of its own.

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
from typing import Any, Dict, List, Optional, Union

from ..campaign.run import run_campaign
from ..campaign.spec import CampaignSpec
from ..campaign.store import CampaignStore
from .schemas import CampaignRequest, ServiceError

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
        summaries: Per-worker :class:`~repro.campaign.run.CampaignRunSummary`
            dicts, filled in as workers finish.
        error: The first worker traceback, when ``state == "failed"``.
    """

    campaign_id: str
    name: str
    workers: int
    state: str = RUNNING
    submitted_at: float = field(default_factory=time.time)
    summaries: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (the ``job`` section of status payloads)."""
        executed = sum(entry.get("executed", 0) for entry in self.summaries)
        failed = sum(entry.get("failed", 0) for entry in self.summaries)
        payload: Dict[str, Any] = {
            "campaign_id": self.campaign_id,
            "name": self.name,
            "workers": self.workers,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "executed": executed,
            "failed": failed,
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

        Registration (plus result adoption and the once-per-fleet error
        reset) happens synchronously so the campaign id — and a consistent
        store row — exist before the response is sent; execution happens on
        daemon threads.  Re-submitting a campaign that is already running
        is refused (409); re-submitting a finished one resumes it, exactly
        like re-invoking ``run-campaign``.
        """
        spec = request.spec
        points = spec.expand()
        with CampaignStore(self.store_path, read_only=False) as store:
            campaign_id = store.register_campaign(spec, points)
            store.adopt_existing_results(campaign_id)
            store.reset_error_points(campaign_id)
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
                name=spec.name,
                workers=request.workers,
            )
            self._jobs[campaign_id] = job
            supervisor = threading.Thread(
                target=self._drain,
                args=(job, spec, request),
                name=f"campaign-{campaign_id[:12]}",
                daemon=True,
            )
            self._threads[campaign_id] = supervisor
            supervisor.start()
        return job

    def _drain(
        self, job: CampaignJob, spec: CampaignSpec, request: CampaignRequest
    ) -> None:
        """Supervise one drain: run N lease workers, then finalise the job."""
        quotas: List[Optional[int]] = [request.max_points] * request.workers
        if request.max_points is not None:
            quotas = [
                request.max_points // request.workers
                + (1 if index < request.max_points % request.workers else 0)
                for index in range(request.workers)
            ]
        run_tag = f"{os.getpid()}-{job.campaign_id[:8]}"
        errors: List[str] = []

        def worker(index: int) -> None:
            try:
                summary = run_campaign(
                    spec,
                    store_path=self.store_path,
                    worker_id=f"svc-{run_tag}-{index}",
                    lease_seconds=request.lease_seconds,
                    chunk_size=request.chunk_size,
                    max_points=quotas[index],
                    # The submit path already reset error points once for
                    # this drain; doing it again here would race a peer's
                    # fresh failure back to pending mid-fleet.
                    reset_errors=False,
                )
            except BaseException as error:  # noqa: BLE001 - recorded, not raised
                errors.append(f"{type(error).__name__}: {error}")
            else:
                with self._lock:
                    job.summaries.append(summary.to_dict())

        if request.workers == 1:
            worker(0)
        else:
            threads = [
                threading.Thread(
                    target=worker,
                    args=(index,),
                    name=f"campaign-{job.campaign_id[:8]}-w{index}",
                    daemon=True,
                )
                for index in range(request.workers)
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
