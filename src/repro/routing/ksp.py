"""k-shortest simple paths.

GreenTE (Zhang et al. [41]) reduces the energy-aware routing computation time
"by allowing a solver to explore only the k shortest paths for each (O,D)
pair"; the same restriction powers this reproduction's path-based MILP
(:mod:`repro.optim.pathmilp`) and the GreenTE heuristic.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List

from ..exceptions import PathNotFoundError
from ..obs import metrics, trace
from ..topology.base import Topology
from ..topology.search import shortest_simple_paths
from ..traffic.matrix import Pair
from .paths import Path

_PATHS_ENUMERATED = metrics.counter(
    "repro_candidate_paths_enumerated_total",
    "Paths pulled from the k-shortest enumerations behind CandidatePaths",
)


class CandidatePaths:
    """Resumable k-shortest candidate paths of one topology, by inverse capacity.

    The one provider behind every solver's candidate-path restriction.  Per
    (origin, destination) it keeps the Yen enumeration of
    :func:`~repro.topology.search.shortest_simple_paths` over the topology's
    index and the :class:`Path` objects pulled from it so far, so asking for
    a larger *k* later resumes the enumeration instead of restarting it (k=3
    for the REsPoNse plan, then k=5 for GreenTE, costs one k=5 enumeration).
    The enumeration is deterministic, so a pair's first *k* paths are the
    same however they were pulled.

    The topology must not be mutated while a provider is in use: suspended
    enumerations keep walking the index they were started on.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: Paths pulled from the enumerations so far (telemetry).
        self.paths_enumerated = 0
        self._found: Dict[Pair, List[Path]] = {}
        self._pending: Dict[Pair, Iterator[Path]] = {}

    def for_pairs(self, pairs: Iterable[Pair], k: int) -> Dict[Pair, List[Path]]:
        """The *k* shortest paths of every pair, pulling only what is missing.

        Raises:
            UnknownNodeError: If a pair's endpoint is not a node.
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
            index = self.topology.index()
            names = index.node_names
            enumeration = shortest_simple_paths(
                index, index.node_of(pair[0]), index.node_of(pair[1]), index.arc_weights["invcap"]
            )
            self._pending[pair] = (Path.of([names[i] for i in nodes]) for nodes in enumeration)
            found = self._found[pair] = []
        if len(found) < k and pair in self._pending:
            pulled = list(itertools.islice(self._pending[pair], k - len(found)))
            if not found and not pulled:
                del self._found[pair], self._pending[pair]
                raise PathNotFoundError(*pair)
            found += pulled
            self.paths_enumerated += len(pulled)
            if len(found) < k:
                # Fewer than k simple paths exist; the pair is complete.
                del self._pending[pair]
        return found[:k]
