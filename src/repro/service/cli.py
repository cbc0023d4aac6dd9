"""The ``serve`` subcommand — run the scenario service from the CLI.

Kept beside the service (not in :mod:`repro.experiments.runner`) so the
dispatcher only pays the import when the subcommand is actually used, the
same deferred-import pattern the campaign subcommands follow.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional, Sequence

from .schemas import ServiceError
from .server import ServiceConfig, create_server, hostname_url

#: The service process's GIL switch interval (CPython's default is 5 ms).
#: Campaign drains run on threads beside the request threads and hold the
#: interpreter most of the time (HiGHS releases it, but a drain's path
#: MILPs are short), so a request thread that blocked on its socket or on
#: SQLite waits until the drain is forced to yield.  Reads beside a drain
#: (harness ``service_mixed``, 2-CPU box) ran ~20 % faster at 0.2 ms than
#: at 5 ms; 1 ms and 0.05 ms were both slower than 0.2 ms.
SWITCH_INTERVAL_S = 0.0002


def serve_command(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``serve`` arguments, bind the service and serve forever."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description=(
            "Run the scenario service: an HTTP API over the component "
            "registry, the scenario engine and the campaign store, with "
            "streaming replay telemetry.  See docs/service.md."
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help=(
            "interface to bind (default %(default)s; the service has no "
            "authentication, so binding wider is an explicit choice)"
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port (default %(default)s; 0 binds an ephemeral port)",
    )
    parser.add_argument(
        "--store",
        default="campaign.sqlite",
        help="campaign SQLite store served and written (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "default lease workers per submitted campaign when the "
            "submission does not name its own (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log every request (default: only errors)",
    )
    args = parser.parse_args(argv)
    if args.port < 0 or args.port > 65535:
        parser.error(f"--port must be in [0, 65535], got {args.port}")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store=args.store,
        default_workers=args.workers,
    )
    try:
        server = create_server(config)
    except ServiceError as error:
        parser.error(error.message)
    print(f"scenario service listening on {hostname_url(server)}")
    print(f"store: {config.store}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


__all__ = ["serve_command"]
