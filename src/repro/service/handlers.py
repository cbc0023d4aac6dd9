"""Endpoint logic of the scenario service, independent of HTTP plumbing.

Each handler is a plain function from validated inputs to a JSON-ready
payload (or, for the replay stream, a sequence of ``emit`` calls), raising
:class:`~repro.service.schemas.ServiceError` for every client-visible
failure.  The HTTP layer in :mod:`repro.service.server` only routes,
parses and serialises — all behaviour worth testing lives here, callable
without a socket.

Read endpoints open short-lived ``read_only=True`` store connections per
request: WAL lets any number of them run against a store a worker fleet is
actively writing, and a read-only view can never take (or wait on) a write
lock.

The handlers that run scenarios import the scenario stack when they are
first called, so a service answers ``/healthz`` and store reads without
loading the solvers.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Mapping

from ..campaign.report import UnknownMetricError, campaign_report
from ..campaign.store import CampaignStore
from ..exceptions import ConfigurationError, TrafficError
from ..outcome import MalformedResultError
from .jobs import JobManager
from .schemas import (
    ServiceError,
    bad_request,
    campaign_request,
    not_found,
    points_query,
    report_query,
    scenario_spec_from_request,
)

#: Signature of the replay stream's sink: called once per NDJSON record.
Emit = Callable[[Dict[str, Any]], None]


class ServiceState:
    """Everything the handlers need: the store path and the jobs."""

    def __init__(self, store_path: str):
        self.store_path = str(store_path)
        self.jobs = JobManager(store_path)

    def open_reader(self) -> CampaignStore:
        """A fresh read-only store connection for one request.

        Raises:
            ServiceError: 404 when no campaign has ever been submitted (the
                store file does not exist yet).
        """
        if not os.path.exists(self.store_path):
            raise not_found(
                f"campaign store {self.store_path} does not exist yet; "
                "submit a campaign first",
                code="no-store",
            )
        return CampaignStore(self.store_path, read_only=True)


# --------------------------------------------------------------------- #
# Components and scenarios
# --------------------------------------------------------------------- #
def metrics_payload(state: ServiceState) -> Dict[str, Any]:
    """``GET /metrics?format=json`` — the registry snapshot, JSON-ready.

    The server's families, and under ``process="drain"`` the drain
    process's as of its last finished job (campaign drains count there).
    The Prometheus text rendering lives in the HTTP layer (it is a
    content-type concern); this payload carries the same samples for JSON
    consumers and tests.
    """
    from ..obs import metrics as _metrics  # deferred: keeps import cheap

    snapshot = _metrics.registry().snapshot()
    drain = state.jobs.drain_metrics
    return {"metrics": _metrics.labelled_union(snapshot, drain, process="drain")}


def components_payload() -> Dict[str, Any]:
    """``GET /components`` — the registry listing, one key per kind.

    Byte-identical to ``list-components --json``: both call
    :func:`~repro.scenario.registry.registered_components`.
    """
    from ..scenario import registered_components

    return {"components": registered_components()}


def run_scenario_payload(
    state: ServiceState, body: Mapping[str, Any]
) -> Dict[str, Any]:
    """``POST /scenarios`` — run one scenario synchronously.

    The campaign store is the one result cache: a spec whose config hash
    already has a ``results`` row (some campaign executed that very
    scenario) is answered from it over a read-only connection
    (``"cache": "hit"``); anything else — a row that does not decode
    included — runs now (``"cache": "miss"``).  One-shot runs never write
    the store.
    """
    from ..scenario.engine import run_scenario

    spec = scenario_spec_from_request(body)
    if os.path.exists(state.store_path):
        with state.open_reader() as store:
            try:
                stored = store.result(spec.config_hash())
            except (ValueError, MalformedResultError):
                stored = None
        if stored is not None:
            return {"cache": "hit", "result": stored.to_dict()}
    try:
        result = run_scenario(spec)
    except (ConfigurationError, TrafficError, TypeError) as error:
        # TypeError: a validated spec can still hand a component builder an
        # unknown parameter — a client mistake, not a server fault.  A
        # TrafficError is always the spec's too: a volume that is negative or
        # not finite, or a demand the network cannot carry at all.
        raise bad_request(str(error), code="invalid-scenario") from error
    return {"cache": "miss", "result": result.to_dict()}


# --------------------------------------------------------------------- #
# Campaigns
# --------------------------------------------------------------------- #
def submit_campaign_payload(
    state: ServiceState, body: Mapping[str, Any]
) -> Dict[str, Any]:
    """``POST /campaigns`` — register a grid and start its background drain.

    Returns immediately with the campaign id; progress is polled via the
    status endpoint.  Re-submitting a finished campaign resumes it (only
    missing points run), exactly like re-invoking ``run-campaign``.
    """
    request = campaign_request(body)
    try:
        job = state.jobs.submit(request)
    except ConfigurationError as error:
        raise bad_request(str(error), code="invalid-campaign") from error
    return {
        "campaign_id": job.campaign_id,
        "name": job.name,
        "grid_size": request.spec.grid_size(),
        "job": job.to_dict(),
    }


def list_campaigns_payload(state: ServiceState) -> Dict[str, Any]:
    """``GET /campaigns`` — every stored campaign plus in-process job state."""
    if not os.path.exists(state.store_path):
        return {"store": state.store_path, "campaigns": []}
    with state.open_reader() as store:
        campaigns = store.campaigns()
    for row in campaigns:
        job = state.jobs.get(row["campaign_id"])
        if job is not None:
            row["job"] = job.to_dict()
    return {"store": state.store_path, "campaigns": campaigns}


def _find_campaign(store: CampaignStore, selector: str) -> Dict[str, Any]:
    """Resolve a campaign selector, mapping lookup failures to 404."""
    try:
        return store.find_campaign(selector)
    except ConfigurationError as error:
        raise not_found(str(error), code="unknown-campaign") from error


def campaign_status_payload(
    state: ServiceState, selector: str
) -> Dict[str, Any]:
    """``GET /campaigns/{id}/status`` — counts, live leases and job state.

    The lease rows come from the same
    :meth:`~repro.campaign.store.CampaignStore.active_leases` call that
    backs ``campaign-status --json``, so CLI and service consumers always
    see identical ``worker_id``/``expires_at`` views.
    """
    with state.open_reader() as store:
        campaign = _find_campaign(store, selector)
        # Job state before counts: a drain commits its last point and then
        # marks the job done, so counts read after a "done" are final.
        job = state.jobs.get(campaign["campaign_id"])
        job_state = job.to_dict() if job is not None else None
        counts = store.status_counts(campaign["campaign_id"])
        leases = store.active_leases(campaign["campaign_id"])
    payload: Dict[str, Any] = {
        "campaign": campaign,
        "counts": counts,
        "leases": leases,
    }
    if job_state is not None:
        payload["job"] = job_state
    return payload


def campaign_points_payload(
    state: ServiceState, selector: str, query: Mapping[str, List[str]]
) -> Dict[str, Any]:
    """``GET /campaigns/{id}/points`` — paginated point rows.

    ``status``/``limit``/``offset`` filter SQL-side through
    :meth:`~repro.campaign.store.CampaignStore.points`, so one page of a
    huge grid never materialises the rest.
    """
    page = points_query(query)
    with state.open_reader() as store:
        campaign = _find_campaign(store, selector)
        points = store.points(
            campaign["campaign_id"],
            status=page.status,
            limit=page.limit,
            offset=page.offset,
        )
        counts = store.status_counts(campaign["campaign_id"])
    return {
        "campaign_id": campaign["campaign_id"],
        "counts": counts,
        "status": page.status,
        "limit": page.limit,
        "offset": page.offset,
        "count": len(points),
        "points": points,
    }


def campaign_report_payload(
    state: ServiceState, selector: str, query: Mapping[str, List[str]]
) -> Dict[str, Any]:
    """``GET /campaigns/{id}/report`` — the aggregation layer over HTTP.

    The pipeline of ``campaign-report``
    (:func:`~repro.campaign.report.campaign_report`): flat metric rows,
    optional ``filter`` expressions, grouped summary plus scheme dominance
    and deviation-from-best across the grid; ``rows`` is the filtered row
    count.
    """
    report = report_query(query)
    with state.open_reader() as store:
        campaign = _find_campaign(store, selector)
        try:
            payload = campaign_report(
                store,
                campaign["campaign_id"],
                report.metric,
                report.group_by,
                report.filters,
            )
        except UnknownMetricError as error:
            raise bad_request(str(error), code="unknown-metric") from error
        except ConfigurationError as error:
            raise bad_request(str(error), code="invalid-report") from error
    return {
        "campaign_id": campaign["campaign_id"],
        **payload,
        "rows": len(payload["rows"]),
    }


# --------------------------------------------------------------------- #
# Streaming replay
# --------------------------------------------------------------------- #
def replay_stream(body: Mapping[str, Any], emit: Emit) -> None:
    """``GET|POST /scenarios/replay`` — live per-interval telemetry.

    Builds the scenario (any spec error surfaces as a 400 *before* the
    first byte is streamed), then replays it through the ``on_interval``
    hook of :func:`~repro.scenario.engine.run_built_scenario`, emitting
    one record per NDJSON line:

    * ``{"type": "start", ...}`` — name, config hash, interval count,
      scheme labels and the utilisation threshold;
    * ``{"type": "interval", ...}`` — per interval: index, time, fired
      events and each scheme's :meth:`~repro.outcome.IntervalOutcome.record`;
    * ``{"type": "end", "result": ...}`` — the full
      :class:`~repro.outcome.ScenarioResult`, bit-identical to an
      offline ``run_scenario`` of the same spec.
    """
    from ..scenario.engine import build_scenario, run_built_scenario

    spec = scenario_spec_from_request(body)
    try:
        built = build_scenario(spec)
    except (ConfigurationError, TrafficError, TypeError) as error:
        # TypeError: unknown component parameters (see run_scenario_payload).
        raise bad_request(str(error), code="invalid-scenario") from error
    emit(
        {
            "type": "start",
            "name": built.spec.name,
            "config_hash": built.spec.config_hash(),
            "intervals": len(built.trace.timestamps()),
            "schemes": [scheme.label for scheme in built.spec.schemes],
            "utilisation_threshold": built.spec.utilisation_threshold,
        }
    )

    def on_interval(step: Any, outcomes: Mapping[str, Any]) -> None:
        emit(
            {
                "type": "interval",
                "index": step.index,
                "time_s": step.time_s,
                "events": [dict(record) for record in step.fired],
                "schemes": {
                    label: outcome.record() for label, outcome in outcomes.items()
                },
            }
        )

    try:
        result = run_built_scenario(built, on_interval=on_interval)
    except (ConfigurationError, TrafficError) as error:
        raise bad_request(str(error), code="invalid-scenario") from error
    emit({"type": "end", "result": result.to_dict()})


__all__ = [
    "Emit",
    "ServiceError",
    "ServiceState",
    "campaign_points_payload",
    "campaign_report_payload",
    "campaign_status_payload",
    "components_payload",
    "list_campaigns_payload",
    "metrics_payload",
    "replay_stream",
    "run_scenario_payload",
    "submit_campaign_payload",
]
