"""Failure injection and failure-aware topology views.

Two layers consume this module:

* the flow-level :class:`~repro.simulator.engine.SimulationEngine` applies a
  :class:`FailureSchedule`'s link/node events step by step, and
* the scenario :mod:`~repro.scenario.timeline` derives a
  :class:`TopologyView` per trace interval — the failure-adjusted topology a
  :class:`~repro.scenario.timeline.SchemeRuntime` steps against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Tuple, Union

from ..exceptions import SimulationError
from ..topology.base import link_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.base import Topology

#: Slack applied to both window edges of :meth:`FailureSchedule.due`.  The
#: same shift on both bounds keeps consecutive windows disjoint: an event can
#: drift past an interval edge by accumulated float error and still fire, but
#: it can never fire twice.
_EDGE_TOLERANCE_S = 1e-12


@dataclass(frozen=True)
class LinkEvent:
    """A scheduled link failure or repair.

    Attributes:
        time_s: Simulation time at which the event takes effect.
        link: Undirected link endpoints.
        kind: ``"fail"`` or ``"repair"``.
    """

    time_s: float
    link: Tuple[str, str]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "repair"):
            raise SimulationError(f"unknown link event kind: {self.kind!r}")


@dataclass(frozen=True)
class NodeEvent:
    """A scheduled node failure or repair.

    A failed node takes every incident link down with it (constraint (1) of
    the paper: links attached to a powered-off router are inactive).

    Attributes:
        time_s: Simulation time at which the event takes effect.
        node: The failing/recovering node.
        kind: ``"fail"`` or ``"repair"``.
    """

    time_s: float
    node: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "repair"):
            raise SimulationError(f"unknown node event kind: {self.kind!r}")


ScheduledEvent = Union[LinkEvent, NodeEvent]


class FailureSchedule:
    """An ordered collection of link/node failure and repair events."""

    def __init__(self) -> None:
        self._events: List[ScheduledEvent] = []

    def add(self, event: ScheduledEvent) -> "FailureSchedule":
        """Append an already-built event (chainable)."""
        if not isinstance(event, (LinkEvent, NodeEvent)):
            raise SimulationError(
                f"expected a LinkEvent or NodeEvent, got {type(event).__qualname__}"
            )
        self._events.append(event)
        return self

    def events(self) -> List[ScheduledEvent]:
        """All events sorted by time (stable for simultaneous events)."""
        return sorted(self._events, key=lambda event: event.time_s)

    def due(self, previous_s: float, now_s: float) -> List[ScheduledEvent]:
        """Events whose time falls in the half-open interval ``(previous, now]``.

        Both edges carry the same float-drift tolerance, so driving the
        schedule with contiguous windows ``(t0, t1], (t1, t2], ...`` delivers
        an event that lands exactly on a shared edge (or within the tolerance
        of it) exactly once — in the earlier window, never in both.
        """
        return [
            event
            for event in self.events()
            if previous_s + _EDGE_TOLERANCE_S
            < event.time_s
            <= now_s + _EDGE_TOLERANCE_S
        ]

    def __len__(self) -> int:
        return len(self._events)


class TopologyView:
    """A base topology seen through a set of failed links and nodes.

    The view is what scheme runtimes step against on the scenario timeline:
    it exposes the failure state declaratively (``failed_links``,
    ``failed_nodes``, :meth:`unusable_links`) and materialises the surviving
    :attr:`topology` lazily.  When nothing is failed, :attr:`topology` IS the
    base topology object — object identity is what keeps per-topology caches
    (candidate paths, compiled routing state) warm across event-free steps.
    """

    __slots__ = ("base", "failed_links", "failed_nodes", "_active", "_unusable", "_component")

    def __init__(
        self,
        base: "Topology",
        failed_links: Iterable[Tuple[str, str]] = (),
        failed_nodes: Iterable[str] = (),
    ) -> None:
        self.base = base
        self.failed_links: FrozenSet[Tuple[str, str]] = frozenset(
            link_key(u, v) for (u, v) in failed_links
        )
        self.failed_nodes: FrozenSet[str] = frozenset(failed_nodes)
        self._active: "Topology | None" = None
        self._unusable: FrozenSet[Tuple[str, str]] | None = None
        self._component: Dict[str, int] | None = None

    @property
    def has_failures(self) -> bool:
        """Whether any element is currently failed."""
        return bool(self.failed_links) or bool(self.failed_nodes)

    def unusable_links(self) -> FrozenSet[Tuple[str, str]]:
        """Canonical keys of every link out of service: failed links plus
        links incident to failed nodes."""
        if self._unusable is None:
            unusable = set(self.failed_links)
            for node in self.failed_nodes:
                if self.base.has_node(node):
                    for link in self.base.incident_links(node):
                        unusable.add(link.key)
            self._unusable = frozenset(unusable)
        return self._unusable

    @property
    def topology(self) -> "Topology":
        """The surviving topology (the base object itself when nothing failed)."""
        if not self.has_failures:
            return self.base
        if self._active is None:
            active_nodes = [
                name for name in self.base.nodes() if name not in self.failed_nodes
            ]
            unusable = self.unusable_links()
            active_links = [
                key for key in self.base.link_keys() if key not in unusable
            ]
            self._active = self.base.subgraph(
                active_nodes, active_links, name=f"{self.base.name}-degraded"
            )
        return self._active

    def connected_pairs(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> List[Tuple[str, str]]:
        """The subset of *pairs* still connected in the surviving topology
        (its components are labelled once per view)."""
        selected = list(pairs)
        if not self.has_failures:
            return selected
        if self._component is None:
            index = self.topology.index()
            self._component = dict(zip(index.node_names, index.component_labels(), strict=True))
        label = self._component.get  # a node the view does not have is on its own
        return [(o, d) for o, d in selected if label(o, o) == label(d, d)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopologyView(base={self.base.name!r}, "
            f"failed_links={sorted(self.failed_links)}, "
            f"failed_nodes={sorted(self.failed_nodes)})"
        )
