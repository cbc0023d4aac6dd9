"""Command-line subcommands for campaigns.

Dispatched from ``python -m repro.experiments``:

* ``run-campaign`` — expand a campaign spec and execute (or resume) it
  against a SQLite results store through one lease-holding worker;
  ``--workers N`` forks N of them, ``--worker-id`` joins a shared drain by
  hand.
* ``campaign-status`` — show stored campaigns, their point statuses and
  any live worker leases (opens the store read-only).
* ``campaign-report`` — aggregate stored results (summary tables, scheme
  dominance, deviation-from-best) and export metric rows as CSV/JSON.

Only ``run-campaign`` imports the runner and the scenario stack behind it;
the two read commands load the store and the report layer.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict, List, Optional, Sequence

from ..exceptions import ConfigurationError
from ..obs import trace
from .report import (
    campaign_report,
    format_table,
    parse_filters,
    rows_to_csv,
    rows_to_json,
)
from .store import DEFAULT_LEASE_SECONDS, CampaignStore


def _require_store(path: str, parser: argparse.ArgumentParser) -> None:
    """Read-only subcommands refuse a missing store instead of creating one.

    Opening a nonexistent path would silently write an empty schema'd
    SQLite file — a stray store that masks a ``--store`` typo forever.
    """
    if not os.path.exists(path):
        parser.error(f"campaign store {path!r} does not exist (check --store)")


def _run_campaign_command(argv: Sequence[str]) -> int:
    from ..scenario.spec import read_spec_file
    from .run import run_campaign
    from .spec import CampaignSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments run-campaign",
        description=(
            "Expand a declarative campaign spec (base scenario x axes) into "
            "its grid and execute it against a persistent results store. "
            "Completed points (matched by config hash) are skipped, so "
            "re-invoking an interrupted campaign resumes it."
        ),
    )
    parser.add_argument("--spec", required=True, help="campaign spec JSON file ('-' reads stdin)")
    parser.add_argument(
        "--store", default="campaign.sqlite", help="SQLite results store (default: %(default)s)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fork N cooperative workers that drain the grid together via "
            "store leases (crash-safe: a killed worker's points are "
            "reclaimed by the others; default: one in-process worker)"
        ),
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help=(
            "join the campaign as one cooperative worker under this "
            "identity (run the same command with distinct ids on several "
            "terminals or hosts sharing the store file)"
        ),
    )
    parser.add_argument(
        "--lease-seconds",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        metavar="S",
        help=(
            "how long claimed points stay leased without renewal before "
            "peers may take them over (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "points per claim; each claim is grouped by topology/power/"
            "routing signature and every group is evaluated as one problem "
            "and committed atomically — the durability/memory bound "
            "(default: pending points / workers, 1 with --worker-id)"
        ),
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="execute at most this many new points, then stop",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append an NDJSON span trace of the drain to PATH",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record a per-point phase-timing breakdown "
            "(build/calibrate/solve/allocate/overhead) into the store for "
            "campaign-report --timings"
        ),
    )
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)

    if args.trace:
        trace.configure_tracing(args.trace)
    try:
        # Range checks and the --workers x --worker-id exclusion live in
        # run_campaign; its ConfigurationError becomes a usage error.
        summary = run_campaign(
            CampaignSpec.from_dict(read_spec_file(args.spec)),
            store_path=args.store,
            workers=args.workers,
            worker_id=args.worker_id,
            chunk_size=args.chunk_size,
            max_points=args.max_points,
            lease_seconds=args.lease_seconds,
            profile=args.profile,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    finally:
        if args.trace:
            trace.disable_tracing()
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        return 1 if summary.failed else 0
    print(f"campaign: {summary.name} ({summary.campaign_id[:16]})")
    print(f"store: {summary.store_path}")
    if summary.workers > 1:
        print(f"workers: {summary.workers} (lease {args.lease_seconds:g}s)")
    elif summary.worker_id is not None:
        print(f"worker: {summary.worker_id} (lease {args.lease_seconds:g}s)")
    print(
        f"points: {summary.total_points} total, "
        f"{summary.completed_before} already done "
        f"({summary.adopted} adopted by config hash), "
        f"{summary.executed} executed, {summary.failed} failed, "
        f"{summary.remaining} remaining"
    )
    if summary.executed:
        fleet = "1 worker" if summary.workers == 1 else f"{summary.workers} workers"
        print(
            f"elapsed: {summary.elapsed_s:.2f}s "
            f"({summary.points_per_second:.2f} points/s, {fleet})"
        )
    for error in summary.errors:
        print(f"  FAILED {error}")
    return 1 if summary.failed else 0


def _throughput_fields(
    stats: Dict[str, float], remaining: int
) -> Dict[str, Optional[float]]:
    """Derive ``points_per_second``/``eta_seconds`` from completion stats.

    Both are ``None`` when the campaign has no completed points (or no
    recorded wall-clock) to extrapolate from; ``eta_seconds`` is ``0.0``
    once nothing remains.
    """
    done = stats.get("done", 0)
    elapsed = stats.get("elapsed_s", 0.0)
    points_per_second = done / elapsed if done and elapsed > 0 else None
    if remaining <= 0:
        eta_seconds: Optional[float] = 0.0
    elif points_per_second:
        eta_seconds = remaining / points_per_second
    else:
        eta_seconds = None
    return {
        "points_per_second": points_per_second,
        "eta_seconds": eta_seconds,
    }


def _campaign_status_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments campaign-status",
        description="Show stored campaigns and their per-point statuses.",
    )
    parser.add_argument("--store", default="campaign.sqlite", help="SQLite results store")
    parser.add_argument(
        "--campaign", default=None, help="campaign name or id (prefix) for point detail"
    )
    parser.add_argument("--json", action="store_true", help="print as JSON")
    args = parser.parse_args(argv)
    _require_store(args.store, parser)

    try:
        # Read-only: status must never contend with (or mutate) a store a
        # live run-campaign is writing.
        with CampaignStore(args.store, read_only=True) as store:
            campaigns = store.campaigns()
            if not campaigns:
                parser.error(f"campaign store {args.store} holds no campaigns")
            leases = {
                row["campaign_id"]: store.active_leases(row["campaign_id"])
                for row in campaigns
            }
            for row in campaigns:
                remaining = (row["num_points"] or 0) - (row["done"] or 0)
                row.update(
                    _throughput_fields(
                        store.completion_stats(row["campaign_id"]), remaining
                    )
                )
            detail: Optional[List[Dict[str, Any]]] = None
            selected: Optional[Dict[str, Any]] = None
            if args.campaign is not None:
                selected = store.find_campaign(args.campaign)
                detail = store.points(selected["campaign_id"])
    except ConfigurationError as error:
        parser.error(str(error))

    if args.json:
        payload: Dict[str, Any] = {
            "store": args.store,
            "campaigns": campaigns,
            "leases": leases,
        }
        if detail is not None:
            payload["points"] = detail
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"store: {args.store}")
    rows = [
        {
            "campaign": row["name"],
            "id": row["campaign_id"][:12],
            "points": row["num_points"],
            "done": row["done"] or 0,
            "error": row["errors"] or 0,
            "pending": row["pending"] or 0,
            "created": row["created_at"],
        }
        for row in campaigns
    ]
    print(format_table(rows))
    for row in campaigns:
        pps = row.get("points_per_second")
        eta = row.get("eta_seconds")
        if pps is not None and eta not in (None, 0.0):
            print(
                f"  throughput: {row['name']} at {pps:.2f} points/s, "
                f"ETA {eta:.0f}s"
            )
        for lease in leases.get(row["campaign_id"], []):
            print(
                f"  lease: {lease['worker']} holds {lease['points']} point(s) "
                f"of {row['name']} (expires in {lease['expires_in_s']:.0f}s)"
            )
    if detail is not None and selected is not None:
        print(f"\npoints of {selected['name']} ({selected['campaign_id'][:12]}):")
        point_rows = []
        for point in detail:
            entry = {
                "index": point["point_index"],
                "status": point["status"],
                "point": point["name"],
            }
            if point["elapsed_s"] is not None:
                entry["elapsed_s"] = round(point["elapsed_s"], 3)
            if point["error"]:
                entry["error"] = point["error"].strip().splitlines()[-1]
            point_rows.append(entry)
        print(format_table(point_rows))
    return 0


def _format_timings(
    campaign: Dict[str, Any], timings: Dict[str, Any], output_format: str
) -> str:
    """Render a ``campaign-report --timings`` phase breakdown."""
    points = timings["points"]
    totals: Dict[str, float] = timings["totals"]
    if output_format == "json":
        payload = {
            "campaign_id": campaign["campaign_id"],
            "name": campaign["name"],
            "profiled_points": points,
            "totals_s": totals,
            "mean_s": {
                phase: seconds / points for phase, seconds in totals.items()
            }
            if points
            else {},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    header = (
        f"campaign: {campaign['name']} ({campaign['campaign_id'][:12]}, "
        f"{points} profiled points)"
    )
    if not points:
        return (
            header
            + "\nno phase timings recorded — drain the campaign with "
            "run-campaign --profile first\n"
        )
    grand_total = sum(totals.values()) or 1.0
    phases = list(trace.PHASE_NAMES) + sorted(
        set(totals) - set(trace.PHASE_NAMES)
    )
    rows = [
        {
            "phase": phase,
            "total_s": round(totals.get(phase, 0.0), 3),
            "mean_s": round(totals.get(phase, 0.0) / points, 4),
            "share": f"{100.0 * totals.get(phase, 0.0) / grand_total:.1f}%",
        }
        for phase in phases
    ]
    return (
        header
        + "\n"
        + format_table(rows)
        + "\npoints evaluated as one group carry an even share of the group's "
        "phases: totals are exact, a point's own row is its group's mean\n"
    )


def _campaign_report_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments campaign-report",
        description=(
            "Aggregate a stored campaign: per-group summary tables, scheme "
            "dominance and deviation-from-best over the grid, plus CSV/JSON "
            "export of the flat metric rows."
        ),
    )
    parser.add_argument("--store", default="campaign.sqlite", help="SQLite results store")
    parser.add_argument("--campaign", default=None, help="campaign name or id (prefix)")
    parser.add_argument(
        "--metric",
        default="mean_power_percent",
        help="metric to aggregate (default: %(default)s)",
    )
    parser.add_argument(
        "--group-by",
        action="append",
        default=None,
        metavar="COLUMN",
        help="group summary rows by this column (repeatable; default: scheme)",
    )
    parser.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="only rows matching this axis/scheme value (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (csv/json export the flat metric rows)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help=(
            "report the aggregated per-phase timings "
            "(build/calibrate/solve/allocate/overhead) of points drained "
            "with run-campaign --profile, instead of metric aggregates"
        ),
    )
    parser.add_argument("--output", metavar="PATH", help="write the output to PATH")
    args = parser.parse_args(argv)
    _require_store(args.store, parser)

    try:
        # Read-only: reporting alongside a live run must never take (or
        # wait on) write locks.
        with CampaignStore(args.store, read_only=True) as store:
            campaign = store.find_campaign(args.campaign)
            if args.timings:
                timings = store.phase_totals(campaign["campaign_id"])
                text = _format_timings(campaign, timings, args.format)
                if args.output:
                    with open(args.output, "w", encoding="utf-8") as handle:
                        handle.write(text)
                    print(f"wrote {args.format} timings report to {args.output}")
                else:
                    print(text, end="" if text.endswith("\n") else "\n")
                return 0
            report = campaign_report(
                store,
                campaign["campaign_id"],
                args.metric,
                args.group_by or ["scheme"],
                parse_filters(args.filter),
            )
    except ConfigurationError as error:
        parser.error(str(error))

    if args.format == "csv":
        text = rows_to_csv(report["rows"])
    elif args.format == "json":
        text = rows_to_json(report["rows"])
    else:
        counts = f"{campaign['done'] or 0}/{campaign['num_points']}"
        sections = [
            f"campaign: {campaign['name']} ({campaign['campaign_id'][:12]}, "
            f"{counts} points done)",
            f"\nsummary of {args.metric} by {', '.join(report['group_by'])}:",
            format_table(report["summary"]),
        ]
        dominance = report["dominance"]
        direction = "lower" if dominance["lower_is_better"] else "higher"
        if dominance["dominant_scheme"] is not None:
            shares = ", ".join(
                f"{scheme}: {share:.0%}"
                for scheme, share in sorted(dominance["winners"].items())
            )
            sections.append(
                f"\ndominance on {args.metric} ({direction} is better, "
                f"{dominance['points']} points): {dominance['dominant_scheme']} "
                f"wins {dominance['dominant_fraction']:.0%} ({shares})"
            )
        if report["deviation"]:
            sections.append("\ndeviation from per-point best:")
            sections.append(format_table(report["deviation"]))
        text = "\n".join(sections) + "\n"

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def campaign_command(name: str, argv: Sequence[str]) -> int:
    """Dispatch one campaign subcommand (called from the experiments CLI)."""
    if name == "run-campaign":
        return _run_campaign_command(argv)
    if name == "campaign-status":
        return _campaign_status_command(argv)
    if name == "campaign-report":
        return _campaign_report_command(argv)
    raise ConfigurationError(f"unknown campaign subcommand {name!r}")


__all__ = ["campaign_command"]
