"""Topology changes and the one fold from changes to failure state.

A :class:`TopologyChange` fails or repairs one link or node at a time;
:func:`due` picks the changes of a half-open time window, and a
:class:`FailureState` folds changes into the failed links and nodes and
hands out the :class:`TopologyView` they leave.  Three drivers share them:
the scenario :mod:`~repro.scenario.timeline` (a view per trace interval,
what a :class:`~repro.scenario.timeline.SchemeRuntime` steps against), the
flow-level :class:`~repro.simulator.engine.SimulationEngine` (links that
enter or leave the view's unusable set are failed or repaired) and the
stress ablation (the view after every change).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Set, Tuple

from ..exceptions import ConfigurationError
from ..topology.base import link_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.base import Topology

#: Slack applied to both window edges of :func:`due`.  The same shift on both
#: bounds keeps consecutive windows disjoint: a change can drift past an
#: interval edge by accumulated float error and still fire, but it can never
#: fire twice.
_EDGE_TOLERANCE_S = 1e-12


@dataclass(frozen=True)
class TopologyChange:
    """A scheduled failure or repair of a link or node.

    A failed node takes every incident link down with it (constraint (1) of
    the paper: links attached to a powered-off router are inactive).

    Attributes:
        time_s: When the change takes effect (finite seconds).
        element: ``"link"`` or ``"node"``.
        action: ``"fail"`` or ``"repair"``.
        target: ``(u, v)`` for a link, ``(node,)`` for a node.
    """

    time_s: float
    element: str
    action: str
    target: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_s):
            raise ConfigurationError(
                f"topology change time_s must be finite, got {self.time_s}"
            )
        if self.element not in ("link", "node"):
            raise ConfigurationError(
                f"topology change element must be 'link' or 'node', got {self.element!r}"
            )
        if self.action not in ("fail", "repair"):
            raise ConfigurationError(
                f"topology change action must be 'fail' or 'repair', got {self.action!r}"
            )

    @property
    def kind(self) -> str:
        """The registry-style event kind, e.g. ``"link-failure"``."""
        suffix = "failure" if self.action == "fail" else "repair"
        return f"{self.element}-{suffix}"

    def check(self, topology: "Topology") -> None:
        """Reject a change naming an element *topology* does not have.

        Drivers call it for every change when the changes enter — including
        ones scheduled past the end of a run that would never fire — so a
        typoed target cannot silently turn a failure run into an intact one.
        """
        if self.element == "link":
            if not topology.has_link(*self.target):
                raise ConfigurationError(
                    f"{self.kind} event targets unknown link "
                    f"{list(self.target)} of topology {topology.name!r}"
                )
        elif not topology.has_node(self.target[0]):
            raise ConfigurationError(
                f"{self.kind} event targets unknown node "
                f"{self.target[0]!r} of topology {topology.name!r}"
            )

    def record(self) -> Dict[str, Any]:
        """A JSON-ready description used in results and reaction metrics."""
        data: Dict[str, Any] = {"time_s": self.time_s, "kind": self.kind}
        if self.element == "link":
            data["link"] = list(self.target)
        else:
            data["node"] = self.target[0]
        return data


def due(
    changes: Iterable[TopologyChange], previous_s: float, now_s: float
) -> List[TopologyChange]:
    """The changes whose time falls in the half-open window ``(previous, now]``,
    in time order (stable for simultaneous changes).

    Both edges carry the same float-drift tolerance, so driving the changes
    with contiguous windows ``(t0, t1], (t1, t2], ...`` delivers a change
    that lands exactly on a shared edge (or within the tolerance of it)
    exactly once — in the earlier window, never in both.
    """
    return [
        change
        for change in sorted(changes, key=lambda change: change.time_s)
        if previous_s + _EDGE_TOLERANCE_S < change.time_s <= now_s + _EDGE_TOLERANCE_S
    ]


class FailureState:
    """The failed links and nodes that a sequence of changes leaves.

    An element stays failed until its own repair; a link is out of service
    while it or either endpoint is failed (:meth:`TopologyView.unusable_links`).
    :meth:`view` hands out one view object per distinct failed state, so a
    return to an earlier state — the intact network after a repair included —
    returns the same view, and with it the same derived topology that
    per-topology caches key on.
    """

    def __init__(self, topology: "Topology") -> None:
        self.topology = topology
        self._links: Set[Tuple[str, str]] = set()
        self._nodes: Set[str] = set()
        self._views: Dict[Tuple[FrozenSet[Tuple[str, str]], FrozenSet[str]], TopologyView] = {}

    def apply(self, change: TopologyChange) -> None:
        """Fold in one change: a failure adds its element, a repair removes it."""
        if change.element == "link":
            key = link_key(change.target[0], change.target[1])
            if change.action == "fail":
                self._links.add(key)
            else:
                self._links.discard(key)
        elif change.action == "fail":
            self._nodes.add(change.target[0])
        else:
            self._nodes.discard(change.target[0])

    def view(self) -> "TopologyView":
        """The topology seen through the current failed state."""
        key = (frozenset(self._links), frozenset(self._nodes))
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = TopologyView(self.topology, *key)
        return view


class TopologyView:
    """A base topology seen through a set of failed links and nodes.

    The view is what scheme runtimes step against on the scenario timeline:
    it exposes the failure state declaratively (``failed_links``,
    ``failed_nodes``, :meth:`unusable_links`) and materialises the surviving
    :attr:`topology` lazily.  When nothing is failed, :attr:`topology` IS the
    base topology object — object identity is what keeps per-topology caches
    (compiled routing state, flow-LP sessions) warm across event-free steps.
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
