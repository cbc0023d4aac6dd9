"""The scenario service's HTTP layer — stdlib only.

A :class:`~http.server.ThreadingHTTPServer` (one thread per request, no
new dependencies) routing a small REST surface onto the handlers in
:mod:`repro.service.handlers`:

========  ==============================  =====================================
Method    Path                            Handler
========  ==============================  =====================================
GET       ``/``                           endpoint index
GET       ``/healthz``                    liveness probe
GET       ``/components``                 registry listing
POST      ``/scenarios``                  run one scenario (store-cache aware)
GET/POST  ``/scenarios/replay``           streaming NDJSON replay telemetry
POST      ``/campaigns``                  submit a campaign (background drain)
GET       ``/campaigns``                  list campaigns + job state
GET       ``/campaigns/{id}/status``      counts, leases, job state
GET       ``/campaigns/{id}/points``      paginated point rows
GET       ``/campaigns/{id}/report``      aggregation (summary/dominance/…)
========  ==============================  =====================================

Responses are JSON; failures are :class:`ServiceError` payloads with a
machine-readable code.  The replay endpoint streams NDJSON over HTTP/1.1
chunked transfer encoding, one record per line, flushed per interval —
headers are only sent once the scenario has *built*, so an invalid spec
still gets a clean 400 instead of a broken stream.
"""

from __future__ import annotations

import json
import logging
import socket
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import metrics
from . import handlers
from .handlers import ServiceState
from .schemas import ServiceError, bad_request, not_found, parse_json_body

_LOGGER = logging.getLogger(__name__)

_REQUESTS = metrics.counter(
    "repro_service_requests_total", "Service requests handled, by route"
)
_REQUEST_SECONDS = metrics.histogram(
    "repro_service_request_seconds", "Service request handling latency"
)

#: Upper bound on request bodies (a campaign spec is a few KiB; 8 MiB
#: leaves room for giant inline grids while bounding memory per request).
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Bind address and store wiring of one service instance.

    Attributes:
        host: Interface to bind (default loopback — the service has no
            authentication, so exposing it wider is an explicit choice).
        port: TCP port; ``0`` binds an ephemeral port (tests, benches).
        store: Path of the shared campaign SQLite store.
        default_workers: Lease workers per campaign when a submission does
            not name its own ``workers``.
    """

    host: str = "127.0.0.1"
    port: int = 8321
    store: str = "campaign.sqlite"
    default_workers: int = 1


_INDEX = {
    "service": "repro-scenario-service",
    "endpoints": {
        "GET /healthz": "liveness probe",
        "GET /components": "registered components by kind",
        "POST /scenarios": "run one scenario spec (answered from the store on a hit)",
        "GET|POST /scenarios/replay": "streaming NDJSON replay telemetry",
        "POST /campaigns": "submit a campaign spec for background draining",
        "GET /campaigns": "stored campaigns with job state",
        "GET /campaigns/{id}/status": "status counts, live leases, job state",
        "GET /campaigns/{id}/points": "point rows (?status=&limit=&offset=)",
        "GET /campaigns/{id}/report": (
            "aggregation (?metric=&group_by=&filter=KEY%3DVALUE)"
        ),
        "GET /metrics": (
            "process metrics, Prometheus text format (?format=json for JSON)"
        ),
    },
}


def _route_class(route: str) -> str:
    """Collapse a concrete path to its route template for metric labels.

    ``/campaigns/3f2a.../status`` → ``/campaigns/{id}/status`` — label
    cardinality stays bounded by the endpoint table, never by stored data.
    """
    parts = route.split("/")
    if len(parts) >= 3 and parts[1] == "campaigns" and parts[2]:
        parts[2] = "{id}"
        return "/".join(parts)
    return route


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Route one request, render JSON, never leak a traceback to a client."""

    #: Chunked transfer encoding (the replay stream) needs HTTP/1.1.
    protocol_version = "HTTP/1.1"
    server: "ScenarioServiceServer"

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    # repro: allow[REP501] hook http.server.BaseHTTPRequestHandler calls
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _LOGGER.debug("%s - %s", self.address_string(), format % args)

    def _read_body(self) -> bytes:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not header.isdecimal():
            # "abc" has no int(); "-1" has one, and rfile.read(-1) would hold
            # this thread until the client hangs up.  Nothing says where the
            # body ends, so the connection cannot be reused either.
            self.close_connection = True
            raise bad_request(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                413,
                "body-too-large",
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
            )
        return self.rfile.read(length) if length else b""

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, status: int, body: str, content_type: str = "text/plain; charset=utf-8"
    ) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _send_error_payload(self, error: ServiceError) -> None:
        self._send_json(error.status, error.payload())

    def _query(self) -> Dict[str, List[str]]:
        return parse_qs(urlsplit(self.path).query)

    @property
    def route(self) -> str:
        return urlsplit(self.path).path.rstrip("/") or "/"

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, method: str) -> None:
        state = self.server.state
        route_label = _route_class(self.route)
        started = time.perf_counter()
        outcome = "ok"
        try:
            handled = self._route(method, state)
        except ServiceError as error:
            outcome = "error"
            self._send_error_payload(error)
        except BrokenPipeError:
            outcome = "disconnect"  # client went away; nothing to answer
        except Exception:
            outcome = "error"
            _LOGGER.error(
                "unhandled error on %s %s\n%s",
                method,
                self.path,
                traceback.format_exc(),
            )
            self._send_error_payload(
                ServiceError(500, "internal", "internal service error")
            )
        else:
            if not handled:
                outcome = "not-found"
                self._send_error_payload(
                    not_found(f"no such endpoint: {method} {self.route}")
                )
        _REQUESTS.labels(
            method=method, route=route_label, outcome=outcome
        ).inc()
        _REQUEST_SECONDS.labels(route=route_label).observe(
            time.perf_counter() - started
        )

    def _route(self, method: str, state: ServiceState) -> bool:
        route = self.route
        if route == "/" and method == "GET":
            self._send_json(200, _INDEX)
            return True
        if route == "/healthz" and method == "GET":
            self._send_json(
                200, {"status": "ok", "store": state.store_path}
            )
            return True
        if route == "/components" and method == "GET":
            self._send_json(200, handlers.components_payload())
            return True
        if route == "/metrics" and method == "GET":
            payload = handlers.metrics_payload(state)
            if self._query().get("format", [""])[-1] == "json":
                self._send_json(200, payload)
            else:
                self._send_text(
                    200,
                    metrics.render_snapshot(payload["metrics"]),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            return True
        if route == "/scenarios" and method == "POST":
            body = parse_json_body(self._read_body())
            self._send_json(200, handlers.run_scenario_payload(state, body))
            return True
        if route == "/scenarios/replay":
            self._handle_replay(method)
            return True
        if route == "/campaigns":
            if method == "POST":
                body = parse_json_body(self._read_body())
                if "base" not in body and "workers" not in body:
                    body.setdefault(
                        "workers", self.server.config.default_workers
                    )
                self._send_json(
                    202, handlers.submit_campaign_payload(state, body)
                )
                return True
            if method == "GET":
                self._send_json(200, handlers.list_campaigns_payload(state))
                return True
            return False
        if route.startswith("/campaigns/") and method == "GET":
            parts = route.split("/")[2:]  # ["", "campaigns", id, verb]
            if len(parts) != 2:
                return False
            selector, verb = parts
            if verb == "status":
                self._send_json(
                    200, handlers.campaign_status_payload(state, selector)
                )
                return True
            if verb == "points":
                self._send_json(
                    200,
                    handlers.campaign_points_payload(
                        state, selector, self._query()
                    ),
                )
                return True
            if verb == "report":
                self._send_json(
                    200,
                    handlers.campaign_report_payload(
                        state, selector, self._query()
                    ),
                )
                return True
            return False
        return False

    # ------------------------------------------------------------------ #
    # Streaming replay
    # ------------------------------------------------------------------ #
    def _replay_body(self, method: str) -> Dict[str, Any]:
        if method == "POST":
            return parse_json_body(self._read_body())
        values = self._query().get("spec")
        if not values:
            raise bad_request(
                "replay needs a spec: POST a JSON body or pass "
                "?spec=<url-encoded scenario spec JSON>"
            )
        try:
            data = json.loads(values[-1])
        except json.JSONDecodeError as error:
            raise bad_request(
                f"'spec' query parameter is not valid JSON: {error}"
            ) from error
        if not isinstance(data, Mapping):
            raise bad_request("'spec' must decode to a JSON object")
        return dict(data)

    def _handle_replay(self, method: str) -> None:
        body = self._replay_body(method)
        streaming = False

        def emit(record: Dict[str, Any]) -> None:
            nonlocal streaming
            if not streaming:
                # First record: the scenario built, commit to the stream.
                self.send_response(200)
                self.send_header(
                    "Content-Type", "application/x-ndjson; charset=utf-8"
                )
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                streaming = True
            line = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
            self.wfile.write(line)
            self.wfile.write(b"\r\n")
            self.wfile.flush()

        try:
            handlers.replay_stream(body, emit)
        except ServiceError as error:
            if not streaming:
                raise
            emit({"type": "error", **error.payload()["error"]})
        except BrokenPipeError:
            return  # reader hung up mid-replay; abandon quietly
        except Exception:
            _LOGGER.error(
                "replay failed mid-stream\n%s", traceback.format_exc()
            )
            if not streaming:
                raise
            emit({"type": "error", "code": "internal", "message": "replay failed"})
        if streaming:
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()

    # ------------------------------------------------------------------ #
    # HTTP verbs
    # ------------------------------------------------------------------ #
    # repro: allow[REP501] verb hook http.server.BaseHTTPRequestHandler calls
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    # repro: allow[REP501] verb hook http.server.BaseHTTPRequestHandler calls
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class ScenarioServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the service state."""

    #: Request threads are daemons: Ctrl-C stops the service even when a
    #: client holds a replay stream open.
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServiceConfig, state: ServiceState):
        self.config = config
        self.state = state
        super().__init__((config.host, config.port), ServiceRequestHandler)

    def server_close(self) -> None:
        """Close the socket, then end the drain process."""
        super().server_close()
        self.state.jobs.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves port 0)."""
        return self.socket.getsockname()[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound service."""
        host, port = self.address
        if ":" in host:  # IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{port}"


def create_server(config: ServiceConfig) -> ScenarioServiceServer:
    """Bind a service instance (without entering its serve loop).

    Separated from :func:`serve_forever` so tests and benches can bind an
    ephemeral port, read :attr:`ScenarioServiceServer.url` and drive the
    loop from a thread they control.
    """
    try:
        return ScenarioServiceServer(config, ServiceState(config.store))
    except OSError as error:
        raise ServiceError(
            500,
            "bind-failed",
            f"cannot bind {config.host}:{config.port}: {error}",
        ) from error


def hostname_url(server: ScenarioServiceServer) -> str:
    """A printable URL, substituting a wildcard bind with the hostname."""
    host, port = server.address
    if host in ("0.0.0.0", "::"):
        host = socket.gethostname()
    return f"http://{host}:{port}"


__all__ = [
    "MAX_BODY_BYTES",
    "ScenarioServiceServer",
    "ServiceConfig",
    "ServiceRequestHandler",
    "create_server",
    "hostname_url",
]
