"""k-shortest simple paths.

GreenTE (Zhang et al. [41]) reduces the energy-aware routing computation time
"by allowing a solver to explore only the k shortest paths for each (O,D)
pair"; the same restriction powers this reproduction's path-based MILP
(:mod:`repro.optim.pathmilp`) and the GreenTE heuristic.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List

import networkx as nx

from ..exceptions import PathNotFoundError
from ..obs import metrics, trace
from ..topology.base import Topology
from ..traffic.matrix import Pair
from .paths import Path

_PATHS_ENUMERATED = metrics.counter(
    "repro_candidate_paths_enumerated_total",
    "Paths pulled from the k-shortest enumerators behind CandidatePaths",
)


# repro: allow[REP501] CandidatePaths' oracle in tests/test_candidate_paths.py
def k_shortest_paths(
    topology: Topology,
    origin: str,
    destination: str,
    k: int,
) -> List[Path]:
    """The *k* shortest simple paths between two nodes, by inverse capacity.

    Args:
        topology: The network.
        origin: Path origin.
        destination: Path destination.
        k: Maximum number of paths to return (fewer if the graph has fewer
            simple paths).

    Raises:
        PathNotFoundError: If the destination is unreachable.
        ValueError: If ``k`` is not positive.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    graph = topology.to_networkx()
    try:
        generator = nx.shortest_simple_paths(graph, origin, destination, weight="invcap")
        return [Path.of(nodes) for nodes in itertools.islice(generator, k)]
    except nx.NetworkXNoPath:
        raise PathNotFoundError(origin, destination) from None


class CandidatePaths:
    """Resumable k-shortest candidate paths of one topology.

    The one provider behind every solver's candidate-path restriction.  Per
    (origin, destination) it keeps networkx's ``shortest_simple_paths``
    generator and the :class:`Path` objects pulled from it so far, so asking
    for a larger *k* later resumes the enumeration instead of restarting it
    (k=3 for the REsPoNse plan, then k=5 for GreenTE, costs one k=5
    enumeration).  The generator is deterministic, so a pair's first *k*
    paths equal :func:`k_shortest_paths`' however they were pulled.

    The topology must not be mutated while a provider is in use: suspended
    generators keep walking the graph they were started on.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: Paths pulled from the generators so far (telemetry).
        self.paths_enumerated = 0
        self._found: Dict[Pair, List[Path]] = {}
        self._pending: Dict[Pair, Iterator[List[str]]] = {}

    def for_pairs(self, pairs: Iterable[Pair], k: int) -> Dict[Pair, List[Path]]:
        """The *k* shortest paths of every pair, pulling only what is missing.

        Raises:
            PathNotFoundError: If a pair's destination is unreachable.
            ValueError: If ``k`` is not positive.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        before = self.paths_enumerated
        candidates = {pair: self._paths(pair, k) for pair in pairs}
        pulled = self.paths_enumerated - before
        if pulled:
            _PATHS_ENUMERATED.inc(pulled)
            enclosing = trace.current_span()
            if enclosing is not None:
                enclosing.set(
                    paths_enumerated=enclosing.attrs.get("paths_enumerated", 0) + pulled
                )
        return candidates

    def _paths(self, pair: Pair, k: int) -> List[Path]:
        found = self._found.get(pair)
        if found is None:
            found = self._found[pair] = []
            self._pending[pair] = nx.shortest_simple_paths(
                self.topology.to_networkx(), pair[0], pair[1], weight="invcap"
            )
        if len(found) < k and pair in self._pending:
            try:
                for nodes in itertools.islice(self._pending[pair], k - len(found)):
                    found.append(Path.of(nodes))
                    self.paths_enumerated += 1
            except nx.NetworkXNoPath:
                del self._found[pair], self._pending[pair]
                raise PathNotFoundError(*pair) from None
            if len(found) < k:
                # Fewer than k simple paths exist; the pair is complete.
                del self._pending[pair]
        return found[:k]
