"""Dense integer indexing of one topology object.

Every node, directed arc and undirected link gets a dense index once; the
simulator's fairness loop, the flow LP and the subset search's connectivity
walk all read this one object.  :meth:`Topology.index` builds it lazily and a
mutation drops it, with everything memoised on it.  An active subset is a
pair of boolean *masks* over the indices (``node_on``, ``link_on``); public
solver entries turn their name sets into masks once, at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError, UnknownNodeError

if TYPE_CHECKING:  # pragma: no cover - typing only (routing imports topology)
    from ..routing.paths import Path
    from .base import Topology

Key = Tuple[str, str]
#: What a k-shortest enumeration reads of an index (:attr:`TopologyIndex.search_key`).
SearchKey = Tuple[Tuple[str, ...], Tuple[Key, ...], bytes]


@dataclass(frozen=True)
class CompiledPath:
    """A path lowered to the dense indices of the arcs it traverses, in hop
    order, and of the undirected link under each."""

    arc_indices: np.ndarray
    link_indices: np.ndarray


class TopologyIndex:
    """Dense integer indexing of a topology's nodes, directed arcs and links.

    ``node_names`` / ``arc_keys`` / ``link_keys`` list the elements in index
    (= insertion) order and ``node_index`` / ``arc_index`` / ``link_index``
    map back.  Per arc: ``arc_capacity`` (bps), ``arc_src`` / ``arc_dst``
    (node indices) and ``arc_link`` (parent link).  ``link_arcs`` is
    ``(num_links, 2)``, each link's two arcs in ``Link.arc_keys()`` order;
    ``node_links`` lists every node's incident links, ``out_adjacency`` /
    ``in_adjacency`` the ``(arc, dst)`` / ``(arc, src)`` pairs leaving /
    entering it in arc order, and ``arc_weights`` the per-arc ``"invcap"``
    (``1.0 / capacity``), ``"latency"`` and ``"hops"`` lists of the searches.

    Two memos hang off the topology object here, filled by their owners:
    ``ecmp_paths`` (:mod:`repro.routing.ecmp`, per pair) and
    ``element_power`` (:mod:`repro.power.accounting`: a power model, keyed
    by identity, to its watts per element).
    """

    def __init__(self, topology: "Topology") -> None:
        self.node_names: List[str] = topology.nodes()
        self.node_index: Dict[str, int] = {name: i for i, name in enumerate(self.node_names)}
        self.arc_keys: List[Key] = topology.arc_keys()
        self.arc_index: Dict[Key, int] = {key: i for i, key in enumerate(self.arc_keys)}
        arcs = topology.arcs()
        self.arc_capacity = np.array([arc.capacity_bps for arc in arcs], dtype=float)
        self.arc_weights: Dict[str, List[float]] = {
            "invcap": [1.0 / arc.capacity_bps for arc in arcs],
            "latency": [arc.latency_s for arc in arcs],
            "hops": [1.0] * len(arcs),
        }
        links = topology.links()
        self.link_keys: List[Key] = [link.key for link in links]
        self.link_index: Dict[Key, int] = {key: i for i, key in enumerate(self.link_keys)}
        self.link_arcs = np.array(
            [[self.arc_index[key] for key in link.arc_keys()] for link in links], dtype=np.int64
        ).reshape(len(links), 2)
        sources = [self.node_index[src] for src, _ in self.arc_keys]
        destinations = [self.node_index[dst] for _, dst in self.arc_keys]
        self.arc_src = np.array(sources, dtype=np.int64)
        self.arc_dst = np.array(destinations, dtype=np.int64)
        self.arc_link = np.empty(len(self.arc_keys), dtype=np.int64)
        self.arc_link[self.link_arcs.ravel()] = np.repeat(np.arange(len(links)), 2)
        self.node_links: List[List[int]] = [[] for _ in self.node_names]
        self.out_adjacency: List[List[Tuple[int, int]]] = [[] for _ in self.node_names]
        self.in_adjacency: List[List[Tuple[int, int]]] = [[] for _ in self.node_names]
        for arc, (src, dst) in enumerate(zip(sources, destinations, strict=True)):
            self.out_adjacency[src].append((arc, dst))
            self.in_adjacency[dst].append((arc, src))
            self.node_links[src].append(int(self.arc_link[arc]))
        self._compiled: Dict[Tuple[str, ...], CompiledPath] = {}
        self.ecmp_paths: Dict[Key, Tuple["Path", ...]] = {}
        self.element_power: Dict[Any, Any] = {}

    @cached_property
    def search_key(self) -> SearchKey:
        """Exactly what Yen's enumeration reads of this index: the node names
        and arc keys in index order and the ``invcap`` weights' float bits.
        Two indexes with equal keys enumerate the same paths in the same
        order; a mutation drops the index and the key with it."""
        invcap = np.array(self.arc_weights["invcap"], dtype=np.float64).tobytes()
        return tuple(self.node_names), tuple(self.arc_keys), invcap

    @cached_property
    def arc_between(self) -> List[Dict[int, int]]:
        """Per node, its out-arcs by destination node (Yen's enumerations
        share it instead of building one per pair)."""
        return [{dst: arc for arc, dst in out} for out in self.out_adjacency]

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs."""
        return len(self.arc_keys)

    def node_of(self, name: str) -> int:
        """The index of node *name*; :class:`UnknownNodeError` if there is none."""
        try:
            return self.node_index[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def compile_path(self, path: "Path") -> CompiledPath:
        """The path lowered to index arrays (memoised per node sequence);
        :class:`SimulationError` if it traverses an arc the topology lacks."""
        cached = self._compiled.get(path.nodes)
        if cached is not None:
            return cached
        try:
            arcs = np.array([self.arc_index[key] for key in path.arc_keys()], dtype=np.int64)
        except KeyError as error:
            raise SimulationError(f"path {path!r} uses unknown arc {error.args[0]}") from None
        compiled = self._compiled[path.nodes] = CompiledPath(arcs, self.arc_link[arcs])
        return compiled

    def path_loads(self, paths: Sequence["Path"], volumes: Sequence[float]) -> np.ndarray:
        """Per-arc load (arc-index order) when each path carries its volume:
        every arc sums its volumes in the order the paths are given."""
        loads = np.zeros(self.num_arcs)
        for path, volume in zip(paths, volumes, strict=True):
            loads[self.compile_path(path).arc_indices] += volume  # a path's arcs are distinct
        return loads

    def max_utilisation(self, loads: np.ndarray) -> float:
        """The largest load-to-capacity ratio of a load vector (0 when idle)."""
        return float((loads / self.arc_capacity).max(initial=0.0))

    def node_mask(self, names: Optional[Iterable[str]]) -> np.ndarray:
        """``node_on`` for a set of names (``None``: every node; names the
        topology does not have are ignored)."""
        return _mask(self.node_index, names)

    def link_mask(self, keys: Optional[Iterable[Key]]) -> np.ndarray:
        """``link_on`` for a set of ``(u, v)`` pairs, in either orientation
        (``None``: every link; pairs that are not links are ignored)."""
        if keys is not None:
            keys = [(u, v) if u <= v else (v, u) for (u, v) in keys]
        return _mask(self.link_index, keys)

    def arc_mask(self, node_on: np.ndarray, link_on: np.ndarray) -> np.ndarray:
        """The arcs of an active subset: parent link on, both endpoints on."""
        return link_on[self.arc_link] & node_on[self.arc_src] & node_on[self.arc_dst]

    def component_labels(self, arc_on: Optional[np.ndarray] = None) -> List[int]:
        """A label per node, equal for two nodes exactly when a path over the
        arcs that are on (default: all) joins them.  A link's two arcs are on
        or off together, so one walk answers every directed pair."""
        on = [True] * self.num_arcs if arc_on is None else arc_on.tolist()
        labels = [-1] * len(self.node_names)
        for start in range(len(labels)):
            if labels[start] >= 0:
                continue
            labels[start] = start
            frontier = [start]
            while frontier:
                for arc, neighbour in self.out_adjacency[frontier.pop()]:
                    if on[arc] and labels[neighbour] < 0:
                        labels[neighbour] = start
                        frontier.append(neighbour)
        return labels


def _mask(position: Dict[Any, int], members: Optional[Iterable[Any]]) -> np.ndarray:
    if members is None:
        return np.ones(len(position), dtype=bool)
    mask = np.zeros(len(position), dtype=bool)
    on = (position[member] for member in members if member in position)
    mask[np.fromiter(on, dtype=np.int64)] = True
    return mask
