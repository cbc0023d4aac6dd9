"""Paths, routing tables and routing configurations.

These are the objects REsPoNse installs into network elements:

* a :class:`Path` is an ordered node sequence from an origin to a
  destination,
* a :class:`RoutingTable` maps origin-destination pairs to single paths
  (the paper routes each flow on a single path: the ``f`` variables are
  binary),
* a :class:`RoutingConfiguration` is the set of network elements (nodes and
  undirected links) a routing table plus a demand set keeps active — the
  object whose churn Figure 2a measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..exceptions import RoutingError, SimulationError
from ..topology.base import Topology, link_key
from ..traffic.matrix import Pair, TrafficMatrix


@dataclass(frozen=True)
class Path:
    """An ordered sequence of nodes from ``origin`` to ``destination``."""

    nodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise RoutingError("a path needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise RoutingError(f"path visits a node twice: {self.nodes}")

    @classmethod
    def of(cls, nodes: Iterable[str]) -> "Path":
        """Build a path from any iterable of node names."""
        return cls(tuple(nodes))

    @property
    def origin(self) -> str:
        """First node of the path."""
        return self.nodes[0]

    @property
    def destination(self) -> str:
        """Last node of the path."""
        return self.nodes[-1]

    @property
    def num_hops(self) -> int:
        """Number of arcs traversed."""
        return len(self.nodes) - 1

    def arc_keys(self) -> List[Tuple[str, str]]:
        """Directed ``(src, dst)`` arc keys traversed, in order."""
        return list(zip(self.nodes, self.nodes[1:], strict=False))

    def link_keys(self) -> List[Tuple[str, str]]:
        """Canonical undirected link keys traversed, in order."""
        return [link_key(src, dst) for src, dst in self.arc_keys()]

    def latency(self, topology: Topology) -> float:
        """Propagation latency of the path in *topology* (seconds)."""
        return topology.path_latency(self.nodes)

    def is_valid(self, topology: Topology) -> bool:
        """Whether every hop is an existing arc of *topology*."""
        return topology.validate_path(self.nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Path(" + " -> ".join(self.nodes) + ")"


class RoutingTable:
    """A single-path routing: one :class:`Path` per origin-destination pair."""

    def __init__(
        self,
        paths: Mapping[Pair, Path] | Mapping[Pair, Iterable[str]],
        name: str = "routing-table",
    ) -> None:
        normalised: Dict[Pair, Path] = {}
        for pair, value in paths.items():
            path = value if isinstance(value, Path) else Path.of(value)
            origin, destination = pair
            if path.origin != origin or path.destination != destination:
                raise RoutingError(
                    f"path {path!r} does not connect pair {pair}"
                )
            normalised[pair] = path
        self._paths = normalised
        self.name = name

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def pairs(self) -> List[Pair]:
        """All origin-destination pairs with an installed path."""
        return list(self._paths)

    def path(self, origin: str, destination: str) -> Path:
        """The installed path for a pair.

        Raises:
            RoutingError: If the pair has no installed path.
        """
        try:
            return self._paths[(origin, destination)]
        except KeyError:
            raise RoutingError(
                f"no path installed for {(origin, destination)}"
            ) from None

    def get(self, origin: str, destination: str) -> Optional[Path]:
        """The installed path for a pair, or ``None``."""
        return self._paths.get((origin, destination))

    def items(self) -> Iterator[Tuple[Pair, Path]]:
        """Iterate over ``(pair, path)`` entries."""
        return iter(self._paths.items())

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._paths

    # ------------------------------------------------------------------ #
    # Derived element sets and loads
    # ------------------------------------------------------------------ #
    def used_nodes(self) -> Set[str]:
        """Nodes traversed by the installed paths."""
        return {node for path in self._paths.values() for node in path.nodes}

    def used_links(self) -> Set[Tuple[str, str]]:
        """Canonical link keys traversed by the installed paths."""
        return {key for path in self._paths.values() for key in path.link_keys()}

    def validate(self, topology: Topology) -> bool:
        """Whether every installed path is valid in *topology*."""
        return all(path.is_valid(topology) for path in self._paths.values())

    def restricted_to(self, pairs: Iterable[Pair]) -> "RoutingTable":
        """A table keeping only the listed pairs."""
        wanted = set(pairs)
        return RoutingTable(
            {pair: path for pair, path in self._paths.items() if pair in wanted},
            name=f"{self.name}-restricted",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable(name={self.name!r}, pairs={len(self._paths)})"


@dataclass(frozen=True)
class RoutingConfiguration:
    """The set of active elements implied by a routing and a demand set.

    Two intervals of a trace that keep the same nodes and links active are in
    the same routing configuration — the unit Figure 2a counts.
    """

    active_nodes: FrozenSet[str]
    active_links: FrozenSet[Tuple[str, str]]

    @property
    def signature(self) -> Tuple[FrozenSet[str], FrozenSet[Tuple[str, str]]]:
        """Hashable identity of the configuration."""
        return (self.active_nodes, self.active_links)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingConfiguration):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)


def link_loads(
    topology: Topology,
    routing: RoutingTable,
    demands: TrafficMatrix,
) -> np.ndarray:
    """Per-arc load (bits per second) when *demands* follow *routing*, as a
    vector in arc-index order (``topology.index().arc_keys``).

    Pairs without an installed path are ignored.

    Raises:
        RoutingError: If an installed path uses an arc the topology lacks.
    """
    routed = [
        (path, demand)
        for pair, demand in demands.items()
        if demand > 0.0 and (path := routing.get(*pair)) is not None
    ]
    try:
        return topology.index().path_loads(
            [path for path, _ in routed], [demand for _, demand in routed]
        )
    except SimulationError as error:
        raise RoutingError(str(error)) from None


def max_link_utilisation(
    topology: Topology,
    routing: RoutingTable,
    demands: TrafficMatrix,
) -> float:
    """The maximum arc utilisation under *routing* (zero for no demand)."""
    return topology.index().max_utilisation(link_loads(topology, routing, demands))
