"""Request/response schemas and errors of the scenario service.

Every endpoint's input passes through one of the validators here before it
reaches a handler, so malformed requests die at the edge with a structured
JSON error instead of a traceback deep in the engine.  A failed validation
raises :class:`ServiceError`, which the HTTP layer renders uniformly as::

    {"error": {"code": "<machine-readable-code>", "message": "<detail>"}}

The validators deliberately reuse the repo's own spec classes
(:class:`~repro.scenario.spec.ScenarioSpec`,
:class:`~repro.campaign.spec.CampaignSpec`) as the schema of record: a
spec that runs from the CLI is byte-for-byte the spec the service accepts,
and every :class:`~repro.exceptions.ConfigurationError` those classes
raise is translated into a 400 with the same message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..campaign.store import DEFAULT_LEASE_SECONDS, CampaignStore
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # imported by the validators: the spec classes load the scenario stack
    from ..campaign.spec import CampaignSpec
    from ..scenario.spec import ScenarioSpec


class ServiceError(Exception):
    """An HTTP-mappable request failure.

    Attributes:
        status: The HTTP status code to respond with.
        code: A short machine-readable error code.
        message: The human-readable detail.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def payload(self) -> Dict[str, Any]:
        """The JSON body rendered for this error."""
        return {"error": {"code": self.code, "message": self.message}}


def bad_request(message: str, code: str = "bad-request") -> ServiceError:
    """A 400 with a machine-readable code."""
    return ServiceError(400, code, message)


def not_found(message: str, code: str = "not-found") -> ServiceError:
    """A 404 with a machine-readable code."""
    return ServiceError(404, code, message)


def parse_json_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body as a JSON object.

    Raises:
        ServiceError: 400 on empty bodies, invalid JSON or non-object roots.
    """
    if not raw:
        raise bad_request("request body is empty; expected a JSON object")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise bad_request(f"request body is not valid JSON: {error}") from error
    if not isinstance(data, Mapping):
        raise bad_request(
            f"request body must be a JSON object, got {type(data).__name__}"
        )
    return dict(data)


def scenario_spec_from_request(body: Mapping[str, Any]) -> ScenarioSpec:
    """The validated scenario spec of a ``POST /scenarios`` (or replay) body.

    The body is either ``{"spec": {...}}`` or the bare spec dict itself —
    both forms validate through :class:`~repro.scenario.spec.ScenarioSpec`,
    so the service accepts exactly the documents ``run-scenario --spec``
    does.

    Raises:
        ServiceError: 400 when the spec does not validate.
    """
    from ..scenario.spec import ScenarioSpec

    data = body.get("spec", body)
    if not isinstance(data, Mapping):
        raise bad_request("'spec' must be a scenario spec object")
    try:
        spec = ScenarioSpec.from_dict(data).validate()
    except ConfigurationError as error:
        raise bad_request(str(error), code="invalid-scenario") from error
    if not spec.schemes:
        raise bad_request(
            "the scenario names no schemes; add at least one to its "
            "'schemes' list",
            code="invalid-scenario",
        )
    return spec


@dataclass(frozen=True)
class CampaignRequest:
    """A validated ``POST /campaigns`` submission.

    Attributes:
        spec: The campaign spec to execute.
        workers: Cooperative lease-worker threads to drain the grid with.
        max_points: Optional global bound on newly executed points.
        chunk_size: Points per claim (each claim is grouped by network
            signature and every group commits atomically; default: the
            pending points split evenly across the workers).
        lease_seconds: Lease duration without renewal.
    """

    spec: CampaignSpec
    workers: int = 1
    max_points: Optional[int] = None
    chunk_size: Optional[int] = None
    lease_seconds: float = DEFAULT_LEASE_SECONDS


def _typed_option(
    options: Mapping[str, Any], name: str, kinds: Tuple[type, ...], default: Any
) -> Any:
    """One campaign option, checked for its JSON type (``null`` = default)."""
    value = options.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "an integer" if kinds == (int,) else "a number"
        raise bad_request(f"{name!r} must be {expected}, got {value!r}")
    return value


def campaign_request(body: Mapping[str, Any]) -> CampaignRequest:
    """Validate a campaign submission body.

    The body is ``{"spec": <campaign spec>, ...options}`` or a bare
    campaign spec dict (anything with a ``base`` key).  Options:
    ``workers`` (int), ``max_points`` (int), ``chunk_size`` (int),
    ``lease_seconds`` (number).  Only their JSON types are checked here;
    their ranges are checked where ``run-campaign``'s are, by
    :func:`~repro.campaign.run.prepare_campaign` at submission.

    Raises:
        ServiceError: 400 on an invalid spec, an unknown option or an
            option of the wrong type.
    """
    from ..campaign.spec import CampaignSpec

    data = body.get("spec", body if "base" in body else None)
    if not isinstance(data, Mapping):
        raise bad_request(
            "'spec' must be a campaign spec object (a document with a "
            "'base' scenario and optional 'axes')"
        )
    try:
        spec = CampaignSpec.from_dict(data)
    except ConfigurationError as error:
        raise bad_request(str(error), code="invalid-campaign") from error
    options = {key: body[key] for key in body if key != "spec" and body is not data}

    unknown = set(options) - {"workers", "max_points", "chunk_size", "lease_seconds"}
    if unknown:
        raise bad_request(
            f"unknown campaign options {sorted(unknown)}; expected workers, "
            "max_points, chunk_size, lease_seconds"
        )
    return CampaignRequest(
        spec=spec,
        workers=_typed_option(options, "workers", (int,), 1),
        max_points=_typed_option(options, "max_points", (int,), None),
        chunk_size=_typed_option(options, "chunk_size", (int,), None),
        lease_seconds=float(
            _typed_option(
                options, "lease_seconds", (int, float), DEFAULT_LEASE_SECONDS
            )
        ),
    )


@dataclass(frozen=True)
class PointsQuery:
    """Validated pagination parameters of the points endpoint."""

    status: Optional[str] = None
    limit: Optional[int] = None
    offset: int = 0


def _query_int(
    query: Mapping[str, List[str]], name: str, minimum: int
) -> Optional[int]:
    values = query.get(name)
    if not values:
        return None
    try:
        value = int(values[-1])
    except ValueError:
        raise bad_request(f"query parameter {name!r} must be an integer") from None
    if value < minimum:
        raise bad_request(f"query parameter {name!r} must be >= {minimum}")
    return value


def points_query(query: Mapping[str, List[str]]) -> PointsQuery:
    """Validate ``status``/``limit``/``offset`` query parameters.

    Raises:
        ServiceError: 400 on an unknown status or non-integer/negative
            pagination values.
    """
    status_values = query.get("status")
    status = status_values[-1] if status_values else None
    if status is not None and status not in CampaignStore.POINT_STATUSES:
        raise bad_request(
            f"unknown point status {status!r}; expected one of "
            f"{list(CampaignStore.POINT_STATUSES)}"
        )
    limit = _query_int(query, "limit", minimum=0)
    offset = _query_int(query, "offset", minimum=0)
    return PointsQuery(status=status, limit=limit, offset=offset or 0)


@dataclass(frozen=True)
class ReportQuery:
    """Validated parameters of the report endpoint."""

    metric: str = "mean_power_percent"
    group_by: Tuple[str, ...] = ("scheme",)
    filters: Dict[str, Any] = field(default_factory=dict)


def report_query(query: Mapping[str, List[str]]) -> ReportQuery:
    """Validate ``metric``/``group_by``/``filter`` query parameters.

    ``group_by`` is repeatable (or comma-separated); ``filter`` entries use
    the CLI's ``KEY=VALUE`` form and are parsed by the same
    :func:`~repro.campaign.report.parse_filters` code path.

    Raises:
        ServiceError: 400 on a malformed filter.
    """
    from ..campaign.report import parse_filters  # deferred: keeps import cheap

    metric_values = query.get("metric")
    metric = metric_values[-1] if metric_values else "mean_power_percent"
    group_by: List[str] = []
    for entry in query.get("group_by", []):
        group_by.extend(part for part in entry.split(",") if part)
    try:
        filters = parse_filters(query.get("filter", []))
    except ConfigurationError as error:
        raise bad_request(str(error), code="invalid-filter") from error
    return ReportQuery(
        metric=metric,
        group_by=tuple(group_by) if group_by else ("scheme",),
        filters=filters,
    )


__all__ = [
    "CampaignRequest",
    "PointsQuery",
    "ReportQuery",
    "ServiceError",
    "bad_request",
    "campaign_request",
    "not_found",
    "parse_json_body",
    "points_query",
    "report_query",
    "scenario_spec_from_request",
]
