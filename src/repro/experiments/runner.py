"""Parallel experiment sweeps with per-point disk caching.

Reproducing the paper's larger figures means evaluating many independent
experiment points (figure variants, utilisation levels, client populations,
whole figures).  A :class:`Sweep` collects such points — each one an
importable function plus keyword parameters — and executes them either
serially or fanned out over :mod:`multiprocessing` workers, with identical
results either way.  Every point can be cached to disk keyed by a stable
hash of its function reference and parameters, so re-running a sweep (or a
benchmark driver) only pays for points whose configuration changed.

Three layers use this module:

* the ``fig*`` experiment drivers fan their internal scenario points out
  through a sweep (``run_fig4(parallel=True)`` etc.),
* the :mod:`benchmarks` drivers thread optional ``parallel``/``cache_dir``
  settings through to those drivers, and
* the command line: ``python -m repro.experiments fig4 fig7`` runs whole
  figures as sweep points, ``run-scenario`` executes a declarative
  :class:`~repro.scenario.spec.ScenarioSpec` (cached by its config hash),
  ``list-components`` shows the registered scenario building blocks and
  ``run-campaign``/``campaign-status``/``campaign-report``/``serve`` are
  dispatched to :mod:`repro.campaign` and :mod:`repro.service` (see
  :func:`main`).

Campaigns do not execute through this module: :mod:`repro.campaign.run`
evaluates its points' specs directly and the campaign store is its result
cache.  The pickle cache here serves figure sweeps and ``run-scenario
--cache-dir`` only — directories this program's user names on its own
command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import json
import logging
import os
import pickle
import re
import tempfile
import time
import traceback
from dataclasses import dataclass
from multiprocessing import cpu_count, get_all_start_methods, get_context
from pathlib import Path as FilePath
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..exceptions import ConfigurationError
from ..obs import metrics, trace

_LOGGER = logging.getLogger(__name__)

_SWEEP_CACHE_HITS = metrics.counter(
    "repro_sweep_cache_hits_total", "Sweep disk-cache entries served"
)
_SWEEP_CACHE_MISSES = metrics.counter(
    "repro_sweep_cache_misses_total", "Sweep disk-cache lookups with no entry"
)
_SWEEP_CACHE_CORRUPT = metrics.counter(
    "repro_sweep_cache_corrupt_total", "Corrupt sweep cache entries discarded"
)

#: Bump to invalidate every cached sweep point after incompatible changes.
#: Version 2: NumPy scalars/arrays and nested dataclasses canonicalise like
#: their pure-Python equivalents (see :func:`_canonical_value`).
#: Version 3: scenario specs carry the dynamic ``events`` axis and scenario
#: results gained event/reaction fields, so pre-events pickles are stale.
CACHE_VERSION = 3

#: Figures runnable from the command line, resolved lazily by the workers.
FIGURE_REGISTRY: Dict[str, str] = {
    "fig1a": "repro.experiments.fig1a:run_fig1a",
    "fig1b": "repro.experiments.fig1b:run_fig1b",
    "fig2a": "repro.experiments.fig2a:run_fig2a",
    "fig2b": "repro.experiments.fig2b:run_fig2b",
    "fig4": "repro.experiments.fig4:run_fig4",
    "fig5": "repro.experiments.fig5:run_fig5",
    "fig6": "repro.experiments.fig6:run_fig6",
    "fig7": "repro.experiments.fig7:run_fig7",
    "fig8a": "repro.experiments.fig8a:run_fig8a",
    "fig8b": "repro.experiments.fig8b:run_fig8b",
    "fig9": "repro.experiments.fig9:run_fig9",
    "always_on_capacity": "repro.experiments.always_on_capacity:run_always_on_capacity",
    "stress_ablation": "repro.experiments.stress_ablation:run_stress_ablation",
    "web_latency": "repro.experiments.web_latency:run_web_latency",
}


def function_reference(function: Union[str, Callable[..., Any]]) -> str:
    """The stable ``"module:qualname"`` reference of a sweep function.

    Raises:
        ConfigurationError: If the callable cannot be re-imported by a
            worker process (lambdas, locals, ``__main__`` definitions).
    """
    if isinstance(function, str):
        if ":" not in function:
            raise ConfigurationError(
                f"function reference {function!r} must look like 'module:name'"
            )
        return function
    module = getattr(function, "__module__", None)
    qualname = getattr(function, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        raise ConfigurationError(
            f"sweep functions must be importable module-level callables, got {function!r}"
        )
    return f"{module}:{qualname}"


def resolve_function(reference: str) -> Callable[..., Any]:
    """Import and return the callable behind a ``"module:qualname"`` reference."""
    module_name, _, qualname = reference.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class SweepPoint:
    """One experiment point: an importable function plus its parameters.

    Attributes:
        function: ``"module:qualname"`` reference of the point function.
        params: Keyword parameters, as a sorted tuple of ``(name, value)``
            pairs (kept hashable so points can be deduplicated).
        label: Human-readable label used in summaries and result maps.
    """

    function: str
    params: Tuple[Tuple[str, Any], ...]
    label: str

    def kwargs(self) -> Dict[str, Any]:
        """The parameters as a keyword-argument dictionary."""
        return dict(self.params)

    def config_hash(self) -> str:
        """Stable hash identifying the point's configuration on disk."""
        payload = json.dumps(
            {
                "cache_version": CACHE_VERSION,
                "function": self.function,
                "params": {
                    name: _canonical_value(value) for name, value in self.params
                },
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: ``object.__repr__`` embeds the instance address — never stable on disk.
_MEMORY_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _canonical_value(value: Any) -> Any:
    """A JSON-serialisable, process-stable view of a parameter value.

    Primitives and containers pass through structurally; NumPy scalars and
    arrays canonicalise exactly like the equivalent Python numbers and
    (nested) lists, so a spec built from ``np.float64`` values hashes the
    same as one built from floats.  Dataclasses and plain objects become
    ``[class name, attributes]`` — field by field, so a dataclass nested
    inside another canonicalises identically to the same dataclass passed
    at top level.  The last-resort ``repr`` must not carry a memory
    address: an address-bearing key would either defeat the cache (never
    hit) or, after address reuse, silently alias a different
    configuration's entry — so such values are rejected instead.
    """
    if isinstance(value, np.generic):
        # NumPy scalars (np.int64, np.float32, np.bool_, ...) hash like the
        # Python value they wrap.
        return _canonical_value(value.item())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if inspect.isroutine(value) or inspect.isclass(value):
        # Functions/classes canonicalise to their import reference; lambdas
        # and locals raise (a silent shared hash would alias cache entries).
        return function_reference(value)
    if isinstance(value, np.ndarray):
        return _canonical_value(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical_value(item) for item in value)
    if isinstance(value, Mapping):
        return {str(key): _canonical_value(item) for key, item in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Canonicalise field by field (NOT via dataclasses.asdict, whose
        # recursion flattens nested dataclasses into anonymous dicts: the
        # same spec would then hash differently at top level vs. nested).
        fields = {
            f.name: _canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [type(value).__qualname__, fields]
    attributes = getattr(value, "__dict__", None)
    if isinstance(attributes, dict):
        return [type(value).__qualname__, _canonical_value(attributes)]
    representation = repr(value)
    if _MEMORY_ADDRESS.search(representation):
        raise ConfigurationError(
            f"cannot build a stable cache key for {type(value).__qualname__!r}: "
            "its repr embeds a memory address; use a dataclass, an object with "
            "__dict__ attributes, or a custom state-bearing __repr__"
        )
    return representation


def point(
    function: Union[str, Callable[..., Any]],
    label: Optional[str] = None,
    **params: Any,
) -> SweepPoint:
    """Build a :class:`SweepPoint` from a callable (or reference) and kwargs."""
    reference = function_reference(function)
    return SweepPoint(
        function=reference,
        params=tuple(sorted(params.items())),
        label=label if label is not None else reference.partition(":")[2],
    )


def grid(**axes: Iterable[Any]) -> List[Dict[str, Any]]:
    """The cartesian product of named axes as parameter dictionaries.

    ``grid(k=[4, 8], seed=[0, 1])`` yields four dictionaries, varying the
    rightmost axis fastest — handy for building sweep points in bulk.
    """
    names = list(axes)
    values = [list(axes[name]) for name in names]
    return [dict(zip(names, combo, strict=True)) for combo in itertools.product(*values)]


def _cache_file(cache_dir: Union[str, os.PathLike], sweep_point: SweepPoint) -> FilePath:
    name = sweep_point.function.rpartition(":")[2].strip("_") or "point"
    return FilePath(cache_dir) / f"{name}-{sweep_point.config_hash()[:16]}.pkl"


#: Sentinel distinguishing "no cached value" from a cached ``None``.
_CACHE_MISS = object()


def _read_cache(cache_path: Optional[FilePath], sweep_point: SweepPoint) -> Any:
    """The cached value of a point, or :data:`_CACHE_MISS`.

    A corrupt or truncated entry (killed writer, disk trouble, unpicklable
    class change) must never sink the sweep: the entry is dropped with a
    warning and the caller recomputes the point.
    """
    if cache_path is None:
        return _CACHE_MISS
    if not cache_path.exists():
        _SWEEP_CACHE_MISSES.inc()
        return _CACHE_MISS
    try:
        with open(cache_path, "rb") as handle:
            value = pickle.load(handle)
    except Exception as error:
        _LOGGER.warning(
            "discarding corrupt sweep cache entry %s for point %r (%s: %s); "
            "recomputing",
            cache_path,
            sweep_point.label,
            type(error).__name__,
            error,
        )
        cache_path.unlink(missing_ok=True)
        _SWEEP_CACHE_CORRUPT.inc()
        return _CACHE_MISS
    _SWEEP_CACHE_HITS.inc()
    return value


def _write_cache(cache_path: FilePath, result: Any) -> None:
    """Atomically publish a point's result so parallel workers never observe
    partial pickles."""
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=cache_path.parent, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            pickle.dump(result, handle)
        os.replace(temp_name, cache_path)
    except Exception:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def execute_point(
    sweep_point: SweepPoint, cache_dir: Optional[Union[str, os.PathLike]] = None
) -> Any:
    """Run one point, reading/writing the disk cache when enabled.

    This is the single code path used by both serial and parallel execution
    (it is the function the worker processes run), which is what guarantees
    parallel/serial result equality.
    """
    with trace.span(
        "point.execute",
        label=sweep_point.label,
        config_hash=sweep_point.config_hash()[:16] if trace.tracing_enabled() else "",
    ) as point_span:
        cache_path = _cache_file(cache_dir, sweep_point) if cache_dir else None
        cached = _read_cache(cache_path, sweep_point)
        if cached is not _CACHE_MISS:
            point_span.set(cached=True)
            return cached
        point_span.set(cached=False)
        result = resolve_function(sweep_point.function)(**sweep_point.kwargs())
        if cache_path is not None:
            _write_cache(cache_path, result)
        return result


@dataclass
class PointOutcome:
    """The error-isolated result of executing one sweep point.

    Where :func:`execute_point` propagates exceptions (one bad point sinks
    the whole sweep), an outcome captures them.

    Attributes:
        point: The executed sweep point.
        value: The point function's return value (``None`` on failure).
        error: The formatted traceback of the failure, ``None`` on success.
        elapsed_s: Wall-clock execution time of the point.
    """

    point: SweepPoint
    value: Any = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the point executed without raising."""
        return self.error is None


def execute_point_outcome(
    sweep_point: SweepPoint, cache_dir: Optional[Union[str, os.PathLike]] = None
) -> PointOutcome:
    """Run one point, capturing failure and timing instead of raising.

    A failing point yields an outcome whose ``error`` holds the traceback.
    Nothing in ``src/`` calls this any more (campaigns evaluate specs
    directly); it and :class:`PointOutcome` stay because the benchmark
    harness's ``experiments.point_ms_p50`` probe, which this repository's
    PRs may not edit, times ``execute_point_outcome(spec.sweep_point())``.
    """
    start = time.perf_counter()
    try:
        value = execute_point(sweep_point, cache_dir)
    except Exception:
        return PointOutcome(
            point=sweep_point,
            error=traceback.format_exc(),
            elapsed_s=time.perf_counter() - start,
        )
    return PointOutcome(
        point=sweep_point, value=value, elapsed_s=time.perf_counter() - start
    )


class Sweep:
    """A set of experiment points executed serially or over worker processes.

    Example::

        sweep = Sweep(cache_dir=".sweep-cache")
        for params in grid(seed=[0, 1, 2]):
            sweep.add(run_fig4, label=f"seed{params['seed']}", **params)
        results = sweep.run(parallel=True)
    """

    def __init__(
        self,
        points: Optional[Iterable[SweepPoint]] = None,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        processes: Optional[int] = None,
    ) -> None:
        self.points: List[SweepPoint] = list(points or [])
        self.cache_dir = cache_dir
        self.processes = processes

    def add(
        self,
        function: Union[str, Callable[..., Any]],
        label: Optional[str] = None,
        **params: Any,
    ) -> "Sweep":
        """Append a point; returns ``self`` for chaining."""
        self.points.append(point(function, label=label, **params))
        return self

    def run(self, parallel: bool = False) -> List[Any]:
        """Execute every point, preserving point order in the result list.

        Args:
            parallel: Fan the points out over a process pool.  Falls back
                to serial execution when fewer than two points exist or the
                platform offers no ``fork`` start method (worker processes
                must be able to resolve the point functions).
        """
        if not self.points:
            return []
        if parallel and len(self.points) > 1 and "fork" in get_all_start_methods():
            processes = self.processes or min(len(self.points), cpu_count())
            context = get_context("fork")
            with context.Pool(processes=processes) as pool:
                return pool.starmap(
                    execute_point,
                    [(sweep_point, self.cache_dir) for sweep_point in self.points],
                )
        return [execute_point(sweep_point, self.cache_dir) for sweep_point in self.points]

    def run_labelled(self, parallel: bool = False) -> Dict[str, Any]:
        """Like :meth:`run` but keyed by point label (labels must be unique)."""
        labels = [sweep_point.label for sweep_point in self.points]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"sweep labels are not unique: {labels}")
        return dict(zip(labels, self.run(parallel=parallel), strict=True))

    def cached_points(self) -> List[SweepPoint]:
        """The points whose results are already on disk."""
        if not self.cache_dir:
            return []
        return [
            sweep_point
            for sweep_point in self.points
            if _cache_file(self.cache_dir, sweep_point).exists()
        ]

    def clear_cache(self) -> int:
        """Delete this sweep's cached results; returns how many were removed."""
        removed = 0
        if not self.cache_dir:
            return removed
        for sweep_point in self.points:
            cache_path = _cache_file(self.cache_dir, sweep_point)
            if cache_path.exists():
                cache_path.unlink()
                removed += 1
        return removed


def run_sweep(
    function: Union[str, Callable[..., Any]],
    points: Sequence[Mapping[str, Any]],
    labels: Optional[Sequence[str]] = None,
    parallel: bool = False,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    processes: Optional[int] = None,
) -> List[Any]:
    """Convenience wrapper: one function evaluated at many parameter points."""
    sweep = Sweep(cache_dir=cache_dir, processes=processes)
    for index, params in enumerate(points):
        label = labels[index] if labels is not None else f"point-{index}"
        sweep.add(function, label=label, **params)
    return sweep.run(parallel=parallel)


def _parse_setting_value(text: str) -> Any:
    """A ``--set`` value: JSON when it parses, a bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_spec_setting(data: Dict[str, Any], target: str, value: Any) -> None:
    """Apply one ``SECTION.KEY`` override to a scenario spec dict, in place.

    This is the shared implementation behind the ``run-scenario --set`` flag
    and campaign parameter axes.  *target* addresses ``scenario.<field>``,
    a component section's parameter (``traffic.num_pairs``), one event's
    parameter (``events.0.time_s``) or a scheme's parameter by its label
    (``response.num_paths``).

    Raises:
        ConfigurationError: If the target does not address the spec.
    """
    section, dot, key = target.partition(".")
    if not dot or not key:
        raise ConfigurationError(
            f"setting target must look like SECTION.KEY, got {target!r}"
        )
    if section == "scenario":
        data[key] = value
        return
    if section in ("topology", "traffic", "power", "routing"):
        entry = data.get(section)
        if entry is None:
            raise ConfigurationError(
                f"setting {target!r}: the spec has no {section} section yet"
            )
        if isinstance(entry, str):
            entry = {"name": entry, "params": {}}
        entry.setdefault("params", {})[key] = value
        data[section] = entry
        return
    if section == "events":
        # events.<index>.<param> targets one entry of the events list.
        index_text, dot, param = key.partition(".")
        events = data.get("events", [])
        if not dot or not param or not index_text.isdigit():
            raise ConfigurationError(
                f"setting {target!r}: events overrides look like "
                "events.<index>.<param> (e.g. events.0.time_s)"
            )
        index = int(index_text)
        if index >= len(events):
            raise ConfigurationError(
                f"setting {target!r}: the spec has {len(events)} event(s); "
                f"index {index} is out of range"
            )
        event = events[index]
        if isinstance(event, str):
            event = {"name": event, "params": {}}
        event.setdefault("params", {})[param] = value
        events[index] = event
        data["events"] = events
        return
    # Otherwise the section names a scheme by its label.
    for index, scheme in enumerate(data.get("schemes", [])):
        label = scheme if isinstance(scheme, str) else scheme.get("label", scheme.get("name"))
        if label != section:
            continue
        if isinstance(scheme, str):
            scheme = {"name": scheme, "params": {}}
        scheme.setdefault("params", {})[key] = value
        data["schemes"][index] = scheme
        return
    raise ConfigurationError(
        f"setting {target!r}: {section!r} is neither a spec section "
        "(scenario/topology/traffic/power/routing/events) nor a scheme label"
    )


def _apply_setting(
    data: Dict[str, Any], setting: str, parser: argparse.ArgumentParser
) -> None:
    """Apply one ``SECTION.KEY=VALUE`` CLI override to a scenario spec dict.

    Wraps :func:`apply_spec_setting`, augmenting its generic errors with
    the run-scenario flag that fixes them.
    """
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
        "--cache-dir", default=None, help="cache the result keyed by the spec's config hash"
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

    from ..scenario import ScenarioSpec  # deferred: keeps plain sweeps import-light

    data: Dict[str, Any] = {}
    if args.spec:
        if args.spec == "-":
            import sys

            data = json.loads(sys.stdin.read())
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                data = json.load(handle)
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

    sweep_point = spec.sweep_point()
    sweep = Sweep([sweep_point], cache_dir=args.cache_dir)
    cache_state = (
        "disabled"
        if not args.cache_dir
        else ("hit" if sweep.cached_points() else "miss")
    )
    if args.trace:
        trace.configure_tracing(args.trace)
    phase_collector = trace.PhaseCollector() if args.profile else None
    run_start = time.perf_counter()
    try:
        if phase_collector is not None:
            with trace.collect(phase_collector):
                result = sweep.run()[0]
        else:
            result = sweep.run()[0]
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
            import sys

            _print_phases(
                phase_collector.phases(run_elapsed), stream=sys.stderr
            )
        return 0
    print(f"scenario: {result.name}")
    print(f"config hash: {result.config_hash} (cache {cache_state})")
    print(f"intervals: {len(result.times_s)}")
    for event in result.events:
        described = {
            k: v for k, v in event.items() if k not in ("time_s", "kind")
        }
        print(f"  event t={event['time_s']:g}s: {event['kind']} {described}")
    for label, stats in result.summary().items():
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

    from ..scenario import registered_components, resolve

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: figures as a sweep, plus scenario subcommands."""
    import sys

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
        # Deferred import: plain figure sweeps stay campaign-free.
        from ..campaign.cli import campaign_command

        return campaign_command(arguments[0], arguments[1:])
    if arguments and arguments[0] == "serve":
        # Deferred import: the service stack only loads when served.
        from ..service.cli import serve_command

        return serve_command(arguments[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Run figure reproductions, optionally in parallel with caching. "
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
    parser.add_argument("--parallel", action="store_true", help="fan out over processes")
    parser.add_argument("--processes", type=int, default=None, help="pool size")
    parser.add_argument(
        "--cache-dir", default=None, help="cache per-point results under this directory"
    )
    args = parser.parse_args(arguments)

    if args.list:
        for name in sorted(FIGURE_REGISTRY):
            print(name)
        return 0

    requested = list(args.experiments) or sorted(FIGURE_REGISTRY)
    names = list(dict.fromkeys(requested))  # dedupe, preserving order
    unknown = [name for name in names if name not in FIGURE_REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} (try --list)")

    sweep = Sweep(cache_dir=args.cache_dir, processes=args.processes)
    for name in names:
        sweep.add(FIGURE_REGISTRY[name], label=name)
    results = sweep.run_labelled(parallel=args.parallel)
    for name, result in results.items():
        print(f"{name}: {type(result).__name__}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
