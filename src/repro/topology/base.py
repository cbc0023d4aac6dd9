"""Core topology data structures.

The topology model follows the notation of Section 2.2.1 of the paper:

* a set of routers/switches ``N`` (here :class:`Node`),
* a set of directed arcs ``A`` (here :class:`Arc`), where a physical link
  between routers ``i`` and ``j`` is represented by the two arcs ``i -> j``
  and ``j -> i`` grouped into one :class:`Link`.  A link cannot be
  half-powered (``Y_{i->j} == Y_{j->i}``), which is why power accounting and
  the optimisation layer operate on :class:`Link` objects while routing and
  capacity constraints operate on :class:`Arc` objects.

The :class:`Topology` container is independent of :mod:`networkx`;
everything that searches paths or works on dense indices reads
:meth:`Topology.index` (cached, and dropped on mutation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import (
    DuplicateElementError,
    PathNotFoundError,
    TopologyError,
    UnknownArcError,
    UnknownNodeError,
)
from .index import TopologyIndex
from .search import bidirectional_dijkstra

#: Default propagation latency assigned to links that do not specify one.
DEFAULT_LATENCY_S = 0.001


@dataclass(frozen=True)
class Node:
    """A router or switch.

    Attributes:
        name: Unique node identifier.
        kind: Free-form device class, e.g. ``"router"``, ``"switch"`` or
            ``"host"``.  Hosts are never powered down by the framework.
        level: Optional hierarchy level (e.g. ``"core"``, ``"aggregation"``,
            ``"edge"``, ``"metro"``) used by hierarchical topologies and by
            power models that scale the chassis cost with the device class.
        always_powered: When ``True`` the optimisation layer must keep the
            node active regardless of traffic (the paper's "feeder nodes").
    """

    name: str
    kind: str = "router"
    level: Optional[str] = None
    always_powered: bool = False


@dataclass(frozen=True)
class Arc:
    """A directed arc ``src -> dst`` with its capacity and latency.

    Attributes:
        src: Origin node name.
        dst: Destination node name.
        capacity_bps: Bandwidth capacity ``C_{i->j}`` in bits per second.
        latency_s: One-way propagation latency in seconds.
        length_km: Optional physical length, used by amplifier power models.
    """

    src: str
    dst: str
    capacity_bps: float
    latency_s: float = DEFAULT_LATENCY_S
    length_km: float = 0.0

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(src, dst)`` pair identifying this arc."""
        return (self.src, self.dst)

    @property
    def link_key(self) -> Tuple[str, str]:
        """The canonical (sorted) endpoint pair identifying the parent link."""
        return (self.src, self.dst) if self.src <= self.dst else (self.dst, self.src)


@dataclass(frozen=True)
class Link:
    """An undirected physical link grouping the two directed arcs.

    The power state of a link is shared by both directions
    (constraint ``Y_{i->j} = Y_{j->i}`` in the paper).
    """

    u: str
    v: str
    capacity_bps: float
    reverse_capacity_bps: float
    latency_s: float = DEFAULT_LATENCY_S
    length_km: float = 0.0

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical (sorted) endpoint pair."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The two endpoints in insertion order."""
        return (self.u, self.v)

    def arc_keys(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        """Both directed arc keys belonging to this link."""
        return ((self.u, self.v), (self.v, self.u))


def link_key(u: str, v: str) -> Tuple[str, str]:
    """Return the canonical undirected key for the pair ``(u, v)``."""
    return (u, v) if u <= v else (v, u)


class Topology:
    """A mutable network topology of nodes, directed arcs and undirected links.

    The class offers the small set of graph queries the rest of the library
    needs (neighbours, degrees, shortest paths) and its dense
    :meth:`index` for anything more involved.

    Example:
        >>> topo = Topology("triangle")
        >>> for n in "abc":
        ...     topo.add_node(n)
        >>> topo.add_link("a", "b", capacity_bps=1e9)
        >>> topo.add_link("b", "c", capacity_bps=1e9)
        >>> topo.add_link("a", "c", capacity_bps=1e9)
        >>> topo.num_nodes, topo.num_links, topo.num_arcs
        (3, 3, 6)
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._arcs: Dict[Tuple[str, str], Arc] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._index: Optional[TopologyIndex] = None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        name: str,
        kind: str = "router",
        level: Optional[str] = None,
        always_powered: bool = False,
    ) -> Node:
        """Add a node and return it.

        Raises:
            DuplicateElementError: If a node with the same name exists.
        """
        if name in self._nodes:
            raise DuplicateElementError(f"node already exists: {name!r}")
        node = Node(name=name, kind=kind, level=level, always_powered=always_powered)
        self._nodes[name] = node
        self._adjacency[name] = []
        self._invalidate()
        return node

    def add_link(
        self,
        u: str,
        v: str,
        capacity_bps: float,
        latency_s: float = DEFAULT_LATENCY_S,
        reverse_capacity_bps: Optional[float] = None,
        length_km: float = 0.0,
    ) -> Link:
        """Add an undirected link (two directed arcs) between ``u`` and ``v``.

        Args:
            u: First endpoint (must already be a node).
            v: Second endpoint (must already be a node).
            capacity_bps: Capacity of the ``u -> v`` arc in bits per second.
            latency_s: One-way propagation latency, identical in both
                directions.
            reverse_capacity_bps: Capacity of the ``v -> u`` arc; defaults to
                ``capacity_bps`` (links are usually symmetric but the paper
                notes they need not be).
            length_km: Physical length used by amplifier power models.

        Raises:
            UnknownNodeError: If either endpoint is not a node.
            DuplicateElementError: If the link already exists.
            TopologyError: If ``u == v`` or a capacity is not positive.
        """
        if u == v:
            raise TopologyError(f"self-loops are not allowed: {u!r}")
        for endpoint in (u, v):
            if endpoint not in self._nodes:
                raise UnknownNodeError(endpoint)
        if capacity_bps <= 0:
            raise TopologyError(f"capacity must be positive, got {capacity_bps}")
        reverse = capacity_bps if reverse_capacity_bps is None else reverse_capacity_bps
        if reverse <= 0:
            raise TopologyError(f"reverse capacity must be positive, got {reverse}")
        key = link_key(u, v)
        if key in self._links:
            raise DuplicateElementError(f"link already exists: {u!r} <-> {v!r}")
        link = Link(
            u=u,
            v=v,
            capacity_bps=float(capacity_bps),
            reverse_capacity_bps=float(reverse),
            latency_s=float(latency_s),
            length_km=float(length_km),
        )
        self._links[key] = link
        self._arcs[(u, v)] = Arc(u, v, float(capacity_bps), float(latency_s), float(length_km))
        self._arcs[(v, u)] = Arc(v, u, float(reverse), float(latency_s), float(length_km))
        self._adjacency[u].append(v)
        self._adjacency[v].append(u)
        self._invalidate()
        return link

    def _invalidate(self) -> None:
        self._index = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Number of undirected links."""
        return len(self._links)

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs (twice the number of links)."""
        return len(self._arcs)

    def nodes(self) -> List[str]:
        """All node names, in insertion order."""
        return list(self._nodes)

    def node(self, name: str) -> Node:
        """Return the :class:`Node` record for *name*."""
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def has_node(self, name: str) -> bool:
        """Whether *name* is a node of this topology."""
        return name in self._nodes

    def routers(self) -> List[str]:
        """Node names whose kind is not ``"host"``."""
        return [n for n, rec in self._nodes.items() if rec.kind != "host"]

    def hosts(self) -> List[str]:
        """Node names whose kind is ``"host"``."""
        return [n for n, rec in self._nodes.items() if rec.kind == "host"]

    def nodes_at_level(self, level: str) -> List[str]:
        """Node names whose ``level`` attribute equals *level*."""
        return [n for n, rec in self._nodes.items() if rec.level == level]

    def arcs(self) -> List[Arc]:
        """All directed arcs."""
        return list(self._arcs.values())

    def arc(self, src: str, dst: str) -> Arc:
        """Return the directed arc ``src -> dst``."""
        try:
            return self._arcs[(src, dst)]
        except KeyError:
            raise UnknownArcError(src, dst) from None

    def has_arc(self, src: str, dst: str) -> bool:
        """Whether the directed arc ``src -> dst`` exists."""
        return (src, dst) in self._arcs

    def arc_keys(self) -> List[Tuple[str, str]]:
        """The ``(src, dst)`` keys of all directed arcs."""
        return list(self._arcs)

    def links(self) -> List[Link]:
        """All undirected links."""
        return list(self._links.values())

    def link(self, u: str, v: str) -> Link:
        """Return the undirected link between ``u`` and ``v``."""
        try:
            return self._links[link_key(u, v)]
        except KeyError:
            raise UnknownArcError(u, v) from None

    def has_link(self, u: str, v: str) -> bool:
        """Whether an undirected link between ``u`` and ``v`` exists."""
        return link_key(u, v) in self._links

    def link_keys(self) -> List[Tuple[str, str]]:
        """Canonical keys of all undirected links."""
        return list(self._links)

    def neighbors(self, node: str) -> List[str]:
        """Adjacent node names of *node*."""
        if node not in self._adjacency:
            raise UnknownNodeError(node)
        return list(self._adjacency[node])

    def degree(self, node: str) -> int:
        """Number of links incident to *node*."""
        if node not in self._adjacency:
            raise UnknownNodeError(node)
        return len(self._adjacency[node])

    def outgoing_arcs(self, node: str) -> List[Arc]:
        """Arcs originating at *node* (the paper's ``A_i``)."""
        if node not in self._adjacency:
            raise UnknownNodeError(node)
        return [self._arcs[(node, nbr)] for nbr in self._adjacency[node]]

    def incident_links(self, node: str) -> List[Link]:
        """Undirected links incident to *node*."""
        if node not in self._adjacency:
            raise UnknownNodeError(node)
        return [self._links[link_key(node, nbr)] for nbr in self._adjacency[node]]

    def total_capacity_bps(self, node: str) -> float:
        """Combined capacity of all arcs originating at *node*.

        Used by the capacity-based gravity traffic model.
        """
        return sum(arc.capacity_bps for arc in self.outgoing_arcs(node))

    def index(self) -> TopologyIndex:
        """Return (and cache) the dense integer indexing of this topology:
        one object until the next mutation, so what is memoised on it lives
        exactly as long as it is valid."""
        if self._index is None:
            self._index = TopologyIndex(self)
        return self._index

    # ------------------------------------------------------------------ #
    # Graph algorithms
    # ------------------------------------------------------------------ #
    def shortest_path(
        self, origin: str, destination: str, weight: Union[str, Sequence[float]] = "invcap"
    ) -> List[str]:
        """Shortest path between two nodes using the given arc weight
        (a bidirectional Dijkstra over :meth:`index`).

        Args:
            origin: Path origin.
            destination: Path destination.
            weight: ``"invcap"`` reproduces the Cisco-recommended OSPF
                setting, ``"latency"`` yields the propagation-delay-shortest
                path; a sequence is a weight per arc, in index order.

        Raises:
            UnknownNodeError: If an endpoint is not a node.
            PathNotFoundError: If the destination is unreachable.
            ValueError: If *weight* names neither ``"invcap"`` nor ``"latency"``.
        """
        index = self.index()
        source, target = index.node_of(origin), index.node_of(destination)
        if isinstance(weight, str):
            if weight not in ("invcap", "latency"):
                raise ValueError(f"weight must be 'invcap', 'latency' or per-arc, got {weight!r}")
            weight = index.arc_weights[weight]
        nodes = bidirectional_dijkstra(index, source, target, weight)
        if nodes is None:
            raise PathNotFoundError(origin, destination)
        return [index.node_names[node] for node in nodes]

    def path_latency(self, path: Iterable[str]) -> float:
        """Sum of per-arc propagation latencies along a node path."""
        nodes = list(path)
        total = 0.0
        for src, dst in zip(nodes, nodes[1:], strict=False):
            total += self.arc(src, dst).latency_s
        return total

    def validate_path(self, path: Iterable[str]) -> bool:
        """Whether every consecutive pair in *path* is an existing arc."""
        nodes = list(path)
        if not nodes:
            return False
        if any(node not in self._nodes for node in nodes):
            return False
        return all(self.has_arc(src, dst) for src, dst in zip(nodes, nodes[1:], strict=False))

    # ------------------------------------------------------------------ #
    # Derived topologies
    # ------------------------------------------------------------------ #
    def subgraph(
        self,
        active_nodes: Iterable[str],
        active_links: Optional[Iterable[Tuple[str, str]]] = None,
        name: Optional[str] = None,
    ) -> "Topology":
        """Return the topology induced by a set of active nodes and links.

        Links whose endpoints are both active are kept unless *active_links*
        is given, in which case only the listed links (canonical keys) are
        kept.  This mirrors constraint (1) of the paper: links attached to a
        powered-off router are inactive.
        """
        active_node_set = set(active_nodes)
        unknown = active_node_set - set(self._nodes)
        if unknown:
            raise UnknownNodeError(min(unknown))
        keep_links = (
            None
            if active_links is None
            else {link_key(u, v) for (u, v) in active_links}
        )
        clone = Topology(name or f"{self.name}-subset")
        for node_name in self._nodes:
            if node_name in active_node_set:
                record = self._nodes[node_name]
                clone.add_node(
                    record.name,
                    kind=record.kind,
                    level=record.level,
                    always_powered=record.always_powered,
                )
        for key, link in self._links.items():
            if link.u not in active_node_set or link.v not in active_node_set:
                continue
            if keep_links is not None and key not in keep_links:
                continue
            clone.add_link(
                link.u,
                link.v,
                capacity_bps=link.capacity_bps,
                latency_s=link.latency_s,
                reverse_capacity_bps=link.reverse_capacity_bps,
                length_km=link.length_km,
            )
        return clone

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )
