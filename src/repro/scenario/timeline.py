"""The event-driven timeline: events, merged steps and the scheme protocol.

Every number a scenario reports comes out of one loop — start each scheme,
step it through the intervals.  This module holds what that loop runs on:

* a :class:`Timeline` merges the trace's intervals with the scenario's
  dynamic :class:`~repro.scenario.spec.EventSpec` axis — link/node failures
  and repairs (picked by :func:`~repro.simulator.failures.due`, so
  interval-edge events fire exactly once, and folded by one
  :class:`~repro.simulator.failures.FailureState`) plus traffic surges — into a sequence of
  :class:`TimelineStep` objects, each carrying the interval's (possibly
  surged) matrix and the failure-adjusted
  :class:`~repro.simulator.failures.TopologyView`;
* every scheme runs as a :class:`SchemeRuntime` — ``start(scenario)``
  builds long-lived state once (REsPoNse plans, warm-start memory),
  ``step(state, t, matrix, view)`` advances one interval incrementally and
  returns an :class:`~repro.outcome.IntervalOutcome`;
* a :class:`GroupComputeCache` lets the scenarios built as one group share
  plans and solves (candidate paths are shared per process, by network
  content: :meth:`~repro.routing.ksp.CandidatePaths.shared`).

The loop itself — the one interval-major driver — lives beside the result
it returns, in :mod:`repro.scenario.engine`.  Runtimes only *reuse* state
(precomputed plans, cached candidates, unchanged-input memoisation); they
never change what is computed, so the values do not depend on which hooks
are attached or on what else shares the pass.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..exceptions import ConfigurationError
from ..outcome import IntervalOutcome
from ..simulator.failures import FailureState, TopologyChange, TopologyView, due
from ..traffic.matrix import Pair, TrafficMatrix
from .registry import register, registered_name
from .spec import EventSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..topology.base import Topology
    from ..traffic.replay import TrafficTrace
    from .engine import BuiltScenario


# --------------------------------------------------------------------- #
# Timeline events
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TrafficSurge:
    """A demand multiplier active over a time window.

    Attributes:
        start_s: First instant the surge applies.
        factor: Multiplier applied to the demand of the affected pairs.
        end_s: First instant the surge no longer applies (``None`` = until
            the end of the trace).
        pairs: Pairs the surge affects (``None`` = every pair).
    """

    start_s: float
    factor: float
    end_s: Optional[float] = None
    pairs: Optional[Tuple[Pair, ...]] = None

    def __post_init__(self) -> None:
        for name, value in (("start_s", self.start_s), ("end_s", self.end_s)):
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"surge {name} must be finite, got {value}")
        if not math.isfinite(self.factor) or self.factor < 0:
            raise ConfigurationError(
                f"surge factor must be finite and non-negative, got {self.factor}"
            )
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ConfigurationError(
                f"surge window is empty: start={self.start_s}, end={self.end_s}"
            )

    @property
    def time_s(self) -> float:
        """When the surge begins (for merged-stream ordering)."""
        return self.start_s

    @property
    def kind(self) -> str:
        return "traffic-surge"

    def check(self, topology: "Topology") -> None:
        """Reject a surge whose pairs name a node *topology* does not have
        (it would change no demand)."""
        for pair in self.pairs or ():
            for node in pair:
                if not topology.has_node(node):
                    raise ConfigurationError(
                        f"traffic-surge pair {list(pair)} names unknown node "
                        f"{node!r} of topology {topology.name!r}"
                    )

    def active_at(self, time_s: float) -> bool:
        """Whether the surge applies at *time_s*."""
        if time_s < self.start_s:
            return False
        return self.end_s is None or time_s < self.end_s

    def apply(self, matrix: TrafficMatrix) -> TrafficMatrix:
        """The matrix with the surge's multiplier applied."""
        if self.pairs is None:
            return matrix.scaled(self.factor, name=f"{matrix.name}-surge")
        affected = set(self.pairs)
        demands = {
            pair: demand * self.factor if pair in affected else demand
            for pair, demand in matrix.items()
        }
        return TrafficMatrix(demands, name=f"{matrix.name}-surge")

    def record(self) -> Dict[str, Any]:
        """A JSON-ready description used in results and reaction metrics."""
        data: Dict[str, Any] = {
            "time_s": self.start_s,
            "kind": self.kind,
            "factor": self.factor,
        }
        if self.end_s is not None:
            data["end_s"] = self.end_s
        if self.pairs is not None:
            data["pairs"] = [list(pair) for pair in self.pairs]
        return data


TimelineEvent = Union[TopologyChange, TrafficSurge]


# --------------------------------------------------------------------- #
# Registered event kinds (the ``events`` axis of a ScenarioSpec)
# --------------------------------------------------------------------- #


def _as_link(link: Sequence[str]) -> Tuple[str, str]:
    if not isinstance(link, (list, tuple)) or len(link) != 2:
        raise ConfigurationError(
            f"a link target must be a [u, v] endpoint pair, got {link!r}"
        )
    return (str(link[0]), str(link[1]))


@register("event", "link-failure")
def _link_failure_event(
    time_s: float, link: Sequence[str], repair_s: Optional[float] = None
) -> List[TopologyChange]:
    """Fail one link at ``time_s`` (optionally auto-repairing at ``repair_s``)."""
    events = [TopologyChange(float(time_s), "link", "fail", _as_link(link))]
    if repair_s is not None:
        if repair_s <= time_s:
            raise ConfigurationError(
                f"repair_s ({repair_s}) must come after time_s ({time_s})"
            )
        events.append(TopologyChange(float(repair_s), "link", "repair", _as_link(link)))
    return events


@register("event", "link-repair")
def _link_repair_event(time_s: float, link: Sequence[str]) -> TopologyChange:
    """Repair one previously failed link at ``time_s``."""
    return TopologyChange(float(time_s), "link", "repair", _as_link(link))


@register("event", "node-failure")
def _node_failure_event(
    time_s: float, node: str, repair_s: Optional[float] = None
) -> List[TopologyChange]:
    """Fail one node (and every incident link) at ``time_s``."""
    events = [TopologyChange(float(time_s), "node", "fail", (str(node),))]
    if repair_s is not None:
        if repair_s <= time_s:
            raise ConfigurationError(
                f"repair_s ({repair_s}) must come after time_s ({time_s})"
            )
        events.append(TopologyChange(float(repair_s), "node", "repair", (str(node),)))
    return events


@register("event", "node-repair")
def _node_repair_event(time_s: float, node: str) -> TopologyChange:
    """Repair one previously failed node at ``time_s``."""
    return TopologyChange(float(time_s), "node", "repair", (str(node),))


@register("event", "traffic-surge")
def _traffic_surge_event(
    start_s: float,
    factor: float = 2.0,
    end_s: Optional[float] = None,
    pairs: Optional[Sequence[Sequence[str]]] = None,
) -> TrafficSurge:
    """Multiply demand by ``factor`` over ``[start_s, end_s)`` (all pairs by default)."""
    selected = (
        None
        if pairs is None
        else tuple((str(origin), str(destination)) for origin, destination in pairs)
    )
    return TrafficSurge(
        float(start_s),
        float(factor),
        end_s=None if end_s is None else float(end_s),
        pairs=selected,
    )


def resolve_events(specs: Sequence[EventSpec], topology: "Topology") -> List[TimelineEvent]:
    """Build every event spec, flattening builders that return several
    events, and check each against *topology*; sorted by time (stable).

    The check is eager — it covers events scheduled past the end of the
    trace, which would otherwise never fire.
    """
    events: List[TimelineEvent] = []
    for spec in specs:
        built = spec.build()
        items = built if isinstance(built, (list, tuple)) else [built]
        for item in items:
            if not isinstance(item, (TopologyChange, TrafficSurge)):
                raise ConfigurationError(
                    f"event component {spec.name!r} must build TopologyChange/"
                    f"TrafficSurge events, got {type(item).__qualname__}"
                )
            item.check(topology)
            events.append(item)
    return sorted(events, key=lambda event: event.time_s)


# --------------------------------------------------------------------- #
# The merged timeline
# --------------------------------------------------------------------- #


@dataclass
class TimelineStep:
    """One interval of the merged trace/event stream.

    Attributes:
        index: Interval index within the trace.
        time_s: Interval start time.
        matrix: The interval's demand matrix, surges applied.
        view: The failure-adjusted topology in effect during the interval.
        fired: JSON-ready records of the events that took effect at this
            step (empty for ordinary intervals).
    """

    index: int
    time_s: float
    matrix: TrafficMatrix
    view: TopologyView
    fired: List[Dict[str, Any]] = field(default_factory=list)


class Timeline:
    """The merged stream of trace intervals and dynamic events."""

    def __init__(self, steps: List[TimelineStep]) -> None:
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)


def build_timeline(
    topology: "Topology", trace: "TrafficTrace", events: Sequence[TimelineEvent]
) -> Timeline:
    """Merge a trace with resolved events into concrete timeline steps.

    Topology changes are picked by :func:`~repro.simulator.failures.due`
    over the half-open windows between consecutive interval starts (the
    first window opens at ``-inf`` so changes at or before the trace start
    apply to the first interval) and folded by one
    :class:`~repro.simulator.failures.FailureState`, so repeated failure
    states share one :class:`TopologyView` object — and therefore one
    derived topology, keeping per-topology solver caches warm.
    """
    changes = [event for event in events if isinstance(event, TopologyChange)]
    surges = [event for event in events if isinstance(event, TrafficSurge)]
    failed = FailureState(topology)
    steps: List[TimelineStep] = []
    previous_t = -math.inf
    active_surges: set = set()
    for index, interval in enumerate(trace):
        t = interval.start_s
        fired: List[Dict[str, Any]] = []
        for change in due(changes, previous_t, t):
            failed.apply(change)
            fired.append(change.record())

        matrix = interval.matrix
        for surge in surges:
            if surge.active_at(t):
                matrix = surge.apply(matrix)
                if surge not in active_surges:
                    active_surges.add(surge)
                    fired.append(surge.record())
            else:
                active_surges.discard(surge)

        steps.append(
            TimelineStep(index=index, time_s=t, matrix=matrix, view=failed.view(), fired=fired)
        )
        previous_t = t
    return Timeline(steps)


# --------------------------------------------------------------------- #
# Scheme runtimes
# --------------------------------------------------------------------- #


class SchemeRuntime:
    """Incremental evaluation protocol for schemes on the timeline.

    ``start(scenario)`` builds the runtime's long-lived state once —
    precomputed plans, candidate-path caches, warm-start memory.
    ``step(state, time_s, matrix, view)`` advances one interval against the
    failure-adjusted :class:`~repro.simulator.failures.TopologyView` and
    returns an :class:`~repro.outcome.IntervalOutcome`.  ``finish(state)``
    returns the scheme's ``details`` dict (per-interval solutions, plans,
    activations) for callers that need more than the uniform series.

    Every registered scheme component is a subclass; its recomputation
    count is the number of steps whose outcome says ``recomputed``.  A
    spec's parameters are its constructor's keywords, so a name the
    constructor does not take is a :class:`ConfigurationError` naming it (a
    constructor taking ``**params`` checks the names itself).
    """

    def __new__(cls, *args: Any, **params: Any) -> "SchemeRuntime":
        accepted: List[inspect.Parameter] = []
        if cls.__init__ is not object.__init__:
            accepted = list(inspect.signature(cls.__init__).parameters.values())[1:]
        if all(parameter.kind is not parameter.VAR_KEYWORD for parameter in accepted):
            names = [parameter.name for parameter in accepted]
            unknown = sorted(set(params) - set(names))
            if unknown:
                raise ConfigurationError(
                    f"unknown {registered_name('scheme', cls)} scheme parameters "
                    f"{unknown}; supported: {', '.join(names) or '(none)'}"
                )
        return super().__new__(cls)

    def start(self, scenario: "BuiltScenario") -> Any:
        """Build and return the runtime's long-lived state."""
        raise NotImplementedError

    def step(
        self,
        state: Any,
        time_s: float,
        matrix: TrafficMatrix,
        view: TopologyView,
    ) -> IntervalOutcome:
        """Advance one interval; must be callable once per timeline step."""
        raise NotImplementedError

    def finish(self, state: Any) -> Dict[str, Any]:
        """The scheme's ``details`` after the replay (default: none)."""
        return {}


#: Signature of the streaming hook: called once per timeline step, after
#: every scheme has advanced through it, with the step and that interval's
#: per-scheme outcomes (keyed by scheme label).
IntervalCallback = Callable[[TimelineStep, Mapping[str, IntervalOutcome]], None]


# --------------------------------------------------------------------- #
# Group-shared computations
# --------------------------------------------------------------------- #


class GroupComputeCache:
    """Memoised shared computations for the scenarios built as one group.

    :func:`~repro.scenario.engine.build_scenario_group` builds every
    scenario of a group against the *same* topology/power objects and hands
    each :class:`~repro.scenario.engine.BuiltScenario` the same cache (its
    ``shared`` field); a solo build is the group of one and a hand-made
    ``BuiltScenario`` gets a private cache.  Scheme runtimes consult it in
    ``start``/``step``: the first point of a group pays for a REsPoNse plan,
    a GreenTE solve or an ECMP expansion, and every other point whose inputs
    are the *same objects* reuses the value.  Keys hold the shared inputs
    themselves: a topology and a power model hash and compare by identity,
    and the key keeps each alive as long as the cache.

    Sharing never changes a value: a memoised computation is a pure
    function of inputs that are identical (same objects) across the group,
    so each point's results stay bit-identical to a run on its own.
    Candidate paths are not kept here: every solver draws them from
    :meth:`~repro.routing.ksp.CandidatePaths.shared`, one provider per
    network content for the whole process, whose enumerations walk the
    index snapshot they were started on.
    """

    def __init__(self) -> None:
        self._values: Dict[Any, Any] = {}

    def memo(self, key: Any, factory: Callable[[], Any]) -> Any:
        """The cached value for *key*, computing it via *factory* once."""
        if key not in self._values:
            self._values[key] = factory()
        return self._values[key]
