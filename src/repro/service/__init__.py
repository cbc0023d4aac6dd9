"""The scenario service: a long-lived HTTP API over the reproduction stack.

Everything the CLI exposes — the component registry, one-shot scenario
runs, campaign submission/draining and the campaign store's status and
report layers — behind a dependency-free :mod:`http.server` REST surface,
plus what a CLI cannot do: **streaming replay telemetry**, an NDJSON feed
of per-interval power, utilisation and SLO-violation records pushed while
the timeline engine computes them (and guaranteed bit-identical to an
offline run of the same spec).

Layering, bottom-up:

* :mod:`repro.service.schemas` — request validation and uniform errors;
* :mod:`repro.service.jobs` — background campaign drains as cooperative
  lease workers over the shared store, in one spawned drain process;
* :mod:`repro.service.handlers` — endpoint logic, callable without HTTP;
* :mod:`repro.service.server` — routing, JSON rendering, chunked NDJSON;
* :mod:`repro.service.cli` — the ``serve`` subcommand.

Start one with ``python -m repro.experiments serve --store campaign.sqlite``;
the endpoint reference lives in ``docs/service.md``.
"""

from .handlers import ServiceState
from .jobs import CampaignJob, JobManager
from .schemas import ServiceError
from .server import ServiceConfig, create_server

__all__ = [
    "CampaignJob",
    "JobManager",
    "ServiceConfig",
    "ServiceError",
    "ServiceState",
    "create_server",
]
