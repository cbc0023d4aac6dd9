"""Background campaign execution for the scenario service.

A ``POST /campaigns`` must return immediately with the campaign id while
the grid drains in the background.  The :class:`JobManager` does exactly
what ``run-campaign`` does: the submission thread runs the one prepare
step (:func:`~repro.campaign.run.prepare_campaign`: validate, register,
adopt shared results, reset stale errors, fix every worker's share) in the
server, then hands the :class:`~repro.campaign.run.PreparedDrain` to one
long-lived drain process, whose threads run its N workers
(:meth:`~repro.campaign.run.PreparedDrain.drain`), each on its own SQLite
connection.  The store's lease protocol coordinates them; the service
adds no coordination of its own.

A process, because a drain is mostly Python and on the server's threads
would share one interpreter lock with every read.  It is spawned with
:mod:`subprocess` on the first submission (never forked: a forked threaded
program inherits locks mid-flight), in its own session, and kept for the
server's lifetime, so its calibration memo and candidate-path providers
stay warm across jobs.  The server writes one pickled ``PreparedDrain``
per job to the child's stdin; pickles only run that way.  The child
answers one JSON line per finished job (tallies or error, and its metrics
snapshot) on a dup of its original stdout, with fd 1 pointed at stderr so
no stray print or solver output can corrupt a reply.  It exits on stdin
EOF; when it dies, its running jobs fail with its exit code, their
workers' leases go back at once (a resubmission need not wait them out), and
the next submission spawns a fresh one.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from ..obs import metrics
from .schemas import CampaignRequest, ServiceError

if TYPE_CHECKING:  # the runner loads the scenario stack; submit() imports it
    from ..campaign.run import PreparedDrain, WorkerTally

#: Job lifecycle states.
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: How long :meth:`JobManager.close` waits for the drain process to exit.
CLOSE_TIMEOUT_S = 5.0


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
            filled in when the drain process reports the job.
        error: The worker tracebacks, or the drain process's exit code,
            when ``state == "failed"``.
        worker_ids: The lease identities its workers claim under, released
            at once should the drain process die.
    """

    campaign_id: str
    name: str
    workers: int
    state: str = RUNNING
    submitted_at: float = field(default_factory=time.time)
    tallies: List[WorkerTally] = field(default_factory=list)
    error: Optional[str] = None
    worker_ids: List[str] = field(default_factory=list)
    finished: threading.Event = field(default_factory=threading.Event, repr=False)

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

    One instance per service process, owning at most one drain process.
    All mutation happens under one lock; :meth:`close` ends the drain
    process (the store's chunk transactions guarantee the next drain
    resumes cleanly from whatever was durable).
    """

    def __init__(self, store_path: Union[str, os.PathLike]):
        self.store_path = str(store_path)
        self._lock = threading.Lock()
        self._jobs: Dict[str, CampaignJob] = {}
        self._process: Optional[subprocess.Popen[bytes]] = None
        #: The drain process's latest metrics snapshot (``None`` until its
        #: first reply).
        self.drain_metrics: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, request: CampaignRequest) -> CampaignJob:
        """Register a campaign and hand its drain to the drain process.

        The prepare step (option range checks, registration, result
        adoption, the once-per-drain error reset) happens synchronously so
        a bad option is a 400 and the campaign id — and a consistent store
        row — exist before the response is sent; execution happens in the
        drain process.  Re-submitting a campaign that is already running
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
                worker_ids=list(prepared.worker_ids),
            )
            self._jobs[campaign_id] = job
            process = self._process or self._start_process()
            assert process.stdin is not None
            try:
                pickle.dump(prepared, process.stdin)
                process.stdin.flush()
            except OSError:
                pass  # the process died: its reader fails this job with the rest
        return job

    def _start_process(self) -> subprocess.Popen[bytes]:
        """Spawn the drain process and the thread that reads its replies."""
        # The child imports the repro this server runs; ``-c``, as ``-m``
        # would run this module beside the copy the package imports.
        paths = [str(Path(__file__).resolve().parents[2]), os.environ.get("PYTHONPATH")]
        process = subprocess.Popen(
            [sys.executable, "-c", "from repro.service.jobs import _drain; _drain()"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
            start_new_session=True,
        )
        self._process = process
        threading.Thread(target=self._read_replies, args=(process,), daemon=True).start()
        return process

    def _read_replies(self, process: subprocess.Popen[bytes]) -> None:
        """Turn each reply into ``done``/``failed``; on EOF release the rest's
        leases and fail them."""
        from ..campaign.run import WorkerTally
        from ..campaign.store import CampaignStore

        assert process.stdout is not None
        for line in process.stdout:
            reply = json.loads(line)
            with self._lock:
                self.drain_metrics = reply["metrics"]
                job = self._jobs[reply["campaign_id"]]
                job.tallies = [WorkerTally(**tally) for tally in reply["tallies"]]
                job.error = reply["error"]
                job.state = DONE if job.error is None else FAILED
                job.finished.set()
        code = process.wait()
        process.stdout.close()
        with self._lock:
            if self._process is process:
                self._process = None
            orphaned = [job for job in self._jobs.values() if job.state == RUNNING]
        try:
            for job in orphaned:
                with CampaignStore(self.store_path, read_only=False) as store:
                    for worker_id in job.worker_ids:
                        store.release_leases(job.campaign_id, worker_id)
        finally:
            with self._lock:
                for job in orphaned:
                    job.state = FAILED
                    job.error = f"drain process exited with code {code}"
                    job.finished.set()

    def close(self) -> None:
        """End the drain process: close its stdin, terminate, wait, kill."""
        with self._lock:
            process, self._process = self._process, None
        if process is None:
            return
        assert process.stdin is not None
        with contextlib.suppress(OSError):  # a frame a dead child never read
            process.stdin.close()
        process.terminate()
        try:
            process.wait(CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

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
        """Block until a job leaves ``running``; ``True`` when it did."""
        job = self.get(campaign_id)
        return job is None or job.finished.wait(timeout)


# --------------------------------------------------------------------- #
# The drain process
# --------------------------------------------------------------------- #
def _drain() -> None:
    """The drain process: run each job read from stdin on threads until EOF."""
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)  # stray prints and solver output go to stderr
    lock = threading.Lock()

    def run(prepared: PreparedDrain) -> None:
        tallies: List[WorkerTally] = []
        errors: List[str] = []

        def worker(index: int) -> None:
            try:
                tallies.append(prepared.drain(index))
            except BaseException as error:  # noqa: BLE001 - recorded, not raised
                errors.append(f"{type(error).__name__}: {error}")

        workers = range(len(prepared.worker_ids))
        threads = [threading.Thread(target=worker, args=(index,)) for index in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reply = {
            "campaign_id": prepared.campaign_id,
            "tallies": [asdict(tally) for tally in tallies],
            "error": "; ".join(errors) if errors else None,
            "metrics": metrics.registry().snapshot(),
        }
        with lock:
            replies.write(json.dumps(reply) + "\n")
            replies.flush()

    while True:
        try:
            prepared = pickle.load(sys.stdin.buffer)
        except EOFError:
            os._exit(0)  # the server is gone or closing: drop what is in flight
        threading.Thread(target=run, args=(prepared,), daemon=True).start()


__all__ = ["DONE", "FAILED", "RUNNING", "CampaignJob", "JobManager"]
