"""The ``python -m repro.experiments`` command line.

``python -m repro.experiments fig4 fig7`` runs the named figure drivers
(the figures of :mod:`repro.experiments`) one after another (all of them by
default), ``run-scenario`` executes one declarative
:class:`~repro.scenario.spec.ScenarioSpec`, ``list-components`` shows the
registered scenario building blocks and ``run-campaign`` /
``campaign-status`` / ``campaign-report`` / ``serve`` are dispatched to
:mod:`repro.campaign` and :mod:`repro.service` (see :func:`main`).  Each
command imports its layer when it runs, so ``--list`` or
``campaign-status`` does not pay for the scenario stack and its solvers.

Nothing here caches a result: a result worth keeping is a campaign point —
a one-point campaign is ``{"name": ..., "base": <scenario spec>}`` — and the
campaign store is the one result cache.

:func:`execute_point_outcome` is the one hook beside the command line: the
benchmark harness's ``experiments.point_ms_p50`` probe times
``execute_point_outcome(spec.sweep_point())``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
import traceback
from typing import TYPE_CHECKING, Any, Dict, Mapping, NamedTuple, Optional, Sequence

from ..exceptions import ConfigurationError
from ..obs import trace
from . import _EXPORTS

if TYPE_CHECKING:  # pragma: no cover - typing only; the CLI imports it on demand
    from ..scenario import ScenarioSpec


class PointOutcome(NamedTuple):
    """The error-isolated result of running one scenario spec.

    Attributes:
        value: The :class:`~repro.outcome.ScenarioResult` (``None``
            on failure).
        error: The formatted traceback of the failure, ``None`` on success.
        elapsed_s: Wall-clock time of the run.
    """

    value: Any
    error: Optional[str]
    elapsed_s: float


def execute_point_outcome(spec: "ScenarioSpec") -> PointOutcome:
    """Run *spec* through :func:`~repro.scenario.engine.run_scenario`,
    capturing a failure's traceback and the run's wall-clock time instead of
    raising."""
    from ..scenario import run_scenario

    start = time.perf_counter()
    try:
        value = run_scenario(spec)
    except Exception:
        return PointOutcome(None, traceback.format_exc(), time.perf_counter() - start)
    return PointOutcome(value, None, time.perf_counter() - start)


def _parse_setting_value(text: str) -> Any:
    """A ``--set`` value: JSON when it parses, a bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_setting(
    data: Dict[str, Any], setting: str, parser: argparse.ArgumentParser
) -> None:
    """Apply one ``SECTION.KEY=VALUE`` CLI override to a scenario spec dict.

    Wraps :func:`~repro.scenario.spec.apply_spec_setting`, augmenting its
    generic errors with the run-scenario flag that fixes them.
    """
    from ..scenario import apply_spec_setting

    target, separator, value_text = setting.partition("=")
    if not separator:
        parser.error(f"--set expects SECTION.KEY=VALUE, got {setting!r}")
    try:
        apply_spec_setting(data, target, _parse_setting_value(value_text))
    except ConfigurationError as error:
        message = str(error)
        if "section yet" in message:
            section = target.partition(".")[0]
            message += f" (give --{section} or a --spec file first)"
        elif "out of range" in message:
            message += " (add --event NAME first)"
        elif "events overrides look like" in message:
            message += " (e.g. --set events.0.time_s=900)"
        parser.error(f"--set {setting}: {message}")


def _run_scenario_command(argv: Sequence[str]) -> int:
    """``run-scenario``: execute one declarative scenario spec."""
    from ..scenario import ScenarioSpec, read_spec_file, run_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments run-scenario",
        description=(
            "Run a declarative scenario (topology x traffic x power x schemes). "
            "Start from a JSON spec file and/or compose one from flags."
        ),
    )
    parser.add_argument("--spec", help="scenario spec JSON file ('-' reads stdin)")
    parser.add_argument("--name", help="override the scenario name")
    parser.add_argument("--topology", help="registered topology name")
    parser.add_argument("--traffic", help="registered traffic workload name")
    parser.add_argument("--power", help="registered power model name")
    parser.add_argument("--routing", help="registered baseline routing name")
    parser.add_argument(
        "--scheme",
        action="append",
        metavar="NAME",
        help="registered scheme name (repeatable; replaces the spec's schemes)",
    )
    parser.add_argument(
        "--event",
        action="append",
        metavar="NAME",
        help=(
            "registered event kind appended to the spec's events "
            "(repeatable; parameterise with --set events.<index>.<param>=VALUE)"
        ),
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help=(
            "override a parameter; SECTION is scenario, topology, traffic, "
            "power, routing, events.<index> or a scheme label "
            "(e.g. --set traffic.num_pairs=40, --set events.0.time_s=900)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="print the full result as JSON"
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="also write the full result as JSON to PATH (for post-processing)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append an NDJSON span trace of the run to PATH",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a phase-timing breakdown (build/calibrate/solve/allocate)",
    )
    args = parser.parse_args(argv)

    data: Dict[str, Any] = {}
    if args.spec:
        try:
            data = read_spec_file(args.spec)
        except ConfigurationError as error:
            parser.error(str(error))
    for section, override in (
        ("topology", args.topology),
        ("traffic", args.traffic),
        ("power", args.power),
        ("routing", args.routing),
    ):
        if override:
            data[section] = override  # a bare name resets the section's params
    if args.scheme:
        data["schemes"] = list(args.scheme)
    if args.event:
        data["events"] = list(data.get("events", [])) + list(args.event)
    if args.name:
        data["name"] = args.name
    for setting in args.set:
        _apply_setting(data, setting, parser)
    missing = [s for s in ("topology", "traffic", "power") if s not in data]
    if missing:
        parser.error(
            f"scenario is missing {', '.join(missing)}; give --spec and/or "
            "--topology/--traffic/--power (see list-components for names)"
        )
    if not data.get("schemes"):
        parser.error("scenario names no schemes; add --scheme NAME at least once")

    try:
        spec = ScenarioSpec.from_dict(data).validate()
    except ConfigurationError as error:
        parser.error(str(error))

    if args.trace:
        trace.configure_tracing(args.trace)
    phase_collector = trace.PhaseCollector() if args.profile else None
    run_start = time.perf_counter()
    try:
        if phase_collector is not None:
            with trace.collect(phase_collector):
                result = run_scenario(spec)
        else:
            result = run_scenario(spec)
    except ConfigurationError as error:  # a scheme parameter outside its range
        parser.error(str(error))
    finally:
        run_elapsed = time.perf_counter() - run_start
        if args.trace:
            trace.disable_tracing()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        if phase_collector is not None:
            _print_phases(
                phase_collector.phases(run_elapsed), stream=sys.stderr
            )
        return 0
    print(f"scenario: {result.name}")
    print(f"config hash: {result.config_hash}")
    print(f"intervals: {len(result.times_s)}")
    for event in result.events:
        described = {
            k: v for k, v in event.items() if k not in ("time_s", "kind")
        }
        print(f"  event t={event['time_s']:g}s: {event['kind']} {described}")
    for label, stats in result.headline_metrics().items():
        print(
            f"  {label}: mean power {stats['mean_power_percent']:.1f}% "
            f"(savings {stats['mean_savings_percent']:.1f}%), "
            f"recomputations {int(stats['recomputations'])}"
        )
    if phase_collector is not None:
        _print_phases(phase_collector.phases(run_elapsed))
    if args.trace:
        print(f"trace: {args.trace}")
    return 0


def _print_phases(phases: Mapping[str, float], stream: Any = None) -> None:
    """Print a ``--profile`` phase breakdown (one aligned line per phase)."""
    total = sum(phases.values()) or 1.0
    print("phase timings:", file=stream)
    for name in trace.PHASE_NAMES:
        seconds = phases.get(name, 0.0)
        print(
            f"  {name:<10} {seconds:8.3f}s  {100.0 * seconds / total:5.1f}%",
            file=stream,
        )


def _list_components_command(argv: Sequence[str]) -> int:
    """``list-components``: show every registered scenario component.

    Every registry kind is enumerated — including the dynamic ``event``
    kinds — so each axis of a campaign spec (topologies, traffic models,
    schemes, event schedules) is discoverable from the command line; with
    ``--json`` the listing is machine-readable for campaign tooling.
    """
    from ..scenario import registered_components, resolve

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments list-components",
        description=(
            "List the registered scenario components per kind "
            "(topology/traffic/power/routing/scheme/event — every axis a "
            "scenario or campaign spec can name)."
        ),
    )
    parser.add_argument(
        "--kind",
        choices=("topology", "traffic", "power", "routing", "scheme", "event"),
        help="only this component kind",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the listing as JSON ({kind: [names...]})",
    )
    args = parser.parse_args(argv)

    listing = {
        kind: names
        for kind, names in registered_components().items()
        if not args.kind or kind == args.kind
    }
    if args.json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    for kind, names in listing.items():
        print(f"{kind}:")
        for name in names:
            doc = inspect.getdoc(resolve(kind, name)) or ""
            summary = doc.splitlines()[0] if doc else ""
            print(f"  {name:<20} {summary}")
    return 0


# repro: allow[REP502] tests drive the CLI in-process with argv lists
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: figure drivers, plus the scenario subcommands."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "run-scenario":
        return _run_scenario_command(arguments[1:])
    if arguments and arguments[0] == "list-components":
        return _list_components_command(arguments[1:])
    if arguments and arguments[0] in (
        "run-campaign",
        "campaign-status",
        "campaign-report",
    ):
        # Deferred import: plain figure runs stay campaign-free.
        from ..campaign.cli import campaign_command

        return campaign_command(arguments[0], arguments[1:])
    if arguments and arguments[0] == "serve":
        # Deferred import: the service stack only loads when served.
        from ..service.cli import serve_command

        return serve_command(arguments[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Run figure reproductions, one after another. "
            "Subcommands: 'run-scenario' executes a declarative scenario "
            "spec, 'list-components' shows the registered building blocks, "
            "'run-campaign'/'campaign-status'/'campaign-report' drive "
            "declarative scenario grids with a persistent results store, "
            "'serve' runs the scenario service (HTTP API with streaming "
            "replay telemetry)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="registered experiment names (see --list); default: all",
    )
    parser.add_argument("--list", action="store_true", help="list registered experiments")
    args = parser.parse_args(arguments)

    if args.list:
        for name in sorted(_EXPORTS):
            print(name)
        return 0

    requested = list(args.experiments) or sorted(_EXPORTS)
    names = list(dict.fromkeys(requested))  # dedupe, preserving order
    unknown = [name for name in names if name not in _EXPORTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} (try --list)")

    from .. import experiments

    for name in names:
        result = getattr(experiments, f"run_{name}")()
        print(f"{name}: {type(result).__name__}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
