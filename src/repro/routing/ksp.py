"""k-shortest simple paths.

GreenTE (Zhang et al. [41]) reduces the energy-aware routing computation time
"by allowing a solver to explore only the k shortest paths for each (O,D)
pair"; the same restriction powers this reproduction's path-based MILP
(:mod:`repro.optim.pathmilp`) and the GreenTE heuristic.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List

from ..exceptions import PathNotFoundError
from ..obs import metrics, trace
from ..topology.base import Topology
from ..topology.index import SearchKey
from ..topology.search import shortest_simple_paths
from ..traffic.matrix import Pair
from .paths import Path

_PATHS_ENUMERATED = metrics.counter(
    "repro_candidate_paths_enumerated_total",
    "Paths pulled from the k-shortest enumerations behind CandidatePaths",
)

#: Providers the process keeps, least recently used out first.  One
#: retains ≈ 0.2 MB on the 33 pairs of the harness's GÉANT grid at k = 5;
#: on all 1 722 pairs of Genuity it retains 13.1 MB at k = 5, 14.3 MB at
#: k = 6 (the largest k a shipped figure uses) and 17.1 MB at k = 8
#: (tracemalloc).  The size grows with k, since each suspended enumeration
#: keeps its paths and candidate heap, so eight hold ≈ 115 MB at worst for
#: k ≤ 6; a grid or a replay touches one network and a failure view or two.
SHARED_PROVIDERS = 8


class CandidatePaths:
    """Resumable k-shortest candidate paths of one network, by inverse capacity.

    The one provider behind every solver's candidate-path restriction.  Per
    (origin, destination) it keeps the Yen enumeration of
    :func:`~repro.topology.search.shortest_simple_paths` over the topology's
    index and the :class:`Path` objects pulled from it so far, so asking for
    a larger *k* later resumes the enumeration instead of restarting it (k=3
    for the REsPoNse plan, then k=5 for GreenTE, costs one k=5 enumeration).
    The enumeration is deterministic, so a pair's first *k* paths are the
    same however they were pulled.

    Solvers take :meth:`shared` — one provider per network content per
    process.  A provider holds the :class:`~repro.topology.index.TopologyIndex`
    snapshot it was made from, never the topology: a later ``add_link`` on
    the topology builds a new index (and so reaches a new provider) and
    leaves the one a suspended enumeration walks as it was.  A lock
    serialises :meth:`for_pairs`, so threads may share a provider.
    """

    def __init__(self, topology: Topology) -> None:
        #: The index snapshot every enumeration of this provider walks.
        self.index = topology.index()
        #: Paths pulled from the enumerations so far (telemetry).
        self.paths_enumerated = 0
        self._found: Dict[Pair, List[Path]] = {}
        self._pending: Dict[Pair, Iterator[Path]] = {}
        self._lock = threading.Lock()

    @classmethod
    def shared(cls, topology: Topology) -> "CandidatePaths":
        """The process's provider for *topology*'s network.

        Keyed by :attr:`~repro.topology.index.TopologyIndex.search_key`, so
        two equal networks (two ``build_geant()`` objects) resume the same
        enumerations while a failure view or a mutated topology gets its own.
        """
        key = topology.index().search_key
        table = _table
        with table.lock:
            provider = table.providers.get(key)
            if provider is None:
                provider = table.providers[key] = cls(topology)
                if len(table.providers) > SHARED_PROVIDERS:
                    table.providers.popitem(last=False)
            else:
                table.providers.move_to_end(key)
        return provider

    def for_pairs(self, pairs: Iterable[Pair], k: int) -> Dict[Pair, List[Path]]:
        """The *k* shortest paths of every pair, pulling only what is missing.

        Raises:
            UnknownNodeError: If a pair's endpoint is not a node.
            PathNotFoundError: If a pair's destination is unreachable.
            ValueError: If ``k`` is not positive.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        with self._lock:
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
            index = self.index
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


class _Table:
    """The process's providers by network content, in LRU order."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.providers: "OrderedDict[SearchKey, CandidatePaths]" = OrderedDict()


_table = _Table()


def clear_candidate_paths() -> None:
    """Forget every shared provider: later solves enumerate from scratch.

    A forked child starts this way, so it never inherits a lock another
    thread of its parent held at the fork.
    """
    global _table
    _table = _Table()


os.register_at_fork(after_in_child=clear_candidate_paths)
