"""k-shortest simple paths, and the process's table of each network's offline half.

GreenTE (Zhang et al. [41]) reduces the energy-aware routing computation time
"by allowing a solver to explore only the k shortest paths for each (O,D)
pair"; the same restriction powers this reproduction's path-based MILP
(:mod:`repro.optim.pathmilp`) and the GreenTE heuristic.

REsPoNse computes its paths once, offline: the candidate paths, a
calibration, a plan and its always-on set are pure functions of the network
and a few other inputs, never of the traffic being replayed.  So are the
per-interval values the baselines compute (a GreenTE solve, an ECMP
evaluation) once the demand matrix joins their key.  The process keeps all
of them under one rule, in one table: a :class:`NetworkEntry` per network
content (:func:`network_entry`) for paths, plans, always-on sets, GreenTE
solves and ECMP evaluations, and beside the entries the calibrations
(:func:`calibration_memo`), keyed by the narrower content a calibration
reads.  So a drain, a ``--worker-id`` claim or a replay that repeats what
the process has computed computes none of it again.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from typing import (
    Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, TypeVar, cast,
)

from ..exceptions import PathNotFoundError
from ..obs import metrics, trace
from ..topology.base import Topology
from ..topology.index import HashedKey
from ..topology.search import shortest_simple_paths
from ..traffic.matrix import Pair
from .paths import Path

_PATHS_ENUMERATED = metrics.counter(
    "repro_candidate_paths_enumerated_total",
    "Paths pulled from the k-shortest enumerations behind CandidatePaths",
)

T = TypeVar("T")

_MISSING = object()

#: Networks the process keeps, least recently used out first.  A network's
#: candidate paths retain ≈ 0.2 MB on the 33 pairs of the harness's GÉANT
#: grid at k = 5; on all 1 722 pairs of Genuity they retain 13.1 MB at
#: k = 5, 14.3 MB at k = 6 (the largest k a shipped figure uses) and
#: 17.1 MB at k = 8 (tracemalloc).  The size grows with k, since each
#: suspended enumeration keeps its paths and candidate heap, so eight hold
#: ≈ 115 MB at worst for k ≤ 6; a grid or a replay touches one network and
#: a failure view or two.
SHARED_NETWORKS = 8

#: REsPoNse plans, and apart from them always-on sets, each network keeps,
#: least recently used out first.  A plan of all 1 722 Genuity pairs at
#: k = 3 retains 0.46 MB beyond the candidate paths it shares, one of the
#: harness grid's 12 GÉANT pairs 7 kB (tracemalloc), so sixteen stay under
#: 7.5 MB a network, about half what Genuity's candidate paths hold; a grid
#: needs one per (pair set, config, power model, peak).
PLANS_PER_NETWORK = 16

#: The fewest GreenTE solves, and apart from them ECMP evaluations, each
#: network keeps, least recently used out first: one per demand matrix and
#: power table.  A solve retains 4.7 kB on the harness grid's 12 GÉANT pairs and
#: 22.9 kB on 150 Genuity pairs, an ECMP evaluation 5.1 kB and 14.3 kB
#: (tracemalloc), so 128 of each stay under 4.8 MB a network on Genuity.  A
#: scenario group raises the bound to the intervals its schemes step
#: (:func:`keep_intervals`), so no point of a group recomputes what an
#: earlier one computed, however long its trace: an entry then holds what
#: the process's largest group computes of the network.
INTERVALS_PER_NETWORK = 128

_PLAN_HITS = metrics.counter(
    "repro_plan_memo_hits_total",
    "Values found in the network table: REsPoNse plans, always-on sets, "
    "GreenTE solves and ECMP evaluations",
)
_PLAN_MISSES = metrics.counter(
    "repro_plan_memo_misses_total",
    "Values computed for the network table: REsPoNse plans, always-on sets, "
    "GreenTE solves and ECMP evaluations",
)


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
        """The process's provider for *topology*'s network: its
        :class:`NetworkEntry`'s, so two equal networks (two ``build_geant()``
        objects) resume the same enumerations while a failure view or a
        mutated topology gets its own."""
        return network_entry(topology).paths

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


class Memo:
    """Values by kind and key under one lock; builds run outside it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, "OrderedDict[Hashable, Any]"] = {}

    def memo(
        self,
        kind: str,
        key: Hashable,
        build: Callable[[], T],
        counters: Tuple[Any, Any],
        bound: Optional[int],
    ) -> T:
        """The *kind* value under *key*, from *build* on a miss.

        *counters* are the kind's ``(hits, misses)``; past *bound* values
        (``None``: no bound) the least recently used goes.  The build runs
        outside the lock, since it may pull an entry's paths and a Genuity
        plan takes 40 s: two threads may both build a value, and both return
        the one stored first.
        """
        hits, misses = counters
        key = HashedKey(key)  # hashed here, once per lookup
        with self._lock:
            values = self._values.setdefault(kind, OrderedDict())
            stored = values.get(key, _MISSING)
            if stored is not _MISSING:
                values.move_to_end(key)
                hits.inc()
                return cast(T, stored)
        misses.inc()
        built = build()
        with self._lock:
            stored = values.setdefault(key, built)
            if bound is not None and len(values) > bound:
                values.popitem(last=False)
        return cast(T, stored)

    def forget(self, kind: str) -> None:
        """Drop every *kind* value."""
        with self._lock:
            self._values.pop(kind, None)


class NetworkEntry(Memo):
    """What the process keeps of one network content
    (:attr:`~repro.topology.index.TopologyIndex.content_key`).

    ``paths`` is the provider every path-restricted solver draws from;
    :meth:`value` holds what the scheme runtimes compute on the network
    (:mod:`repro.scenario.schemes`): ``"plan"`` and ``"always_on"`` values
    by power table, config, pairs and peak matrix, ``"greente"`` solves and
    ``"ecmp"`` evaluations by what they read and the demand matrix.
    """

    def __init__(self, topology: Topology) -> None:
        super().__init__()
        #: The network's candidate-path provider (:meth:`CandidatePaths.shared`).
        self.paths = CandidatePaths(topology)

    def value(self, kind: str, key: Hashable, build: Callable[[], T]) -> T:
        """:meth:`memo` of one of the kinds above, within its bound
        (:data:`PLANS_PER_NETWORK`, :data:`INTERVALS_PER_NETWORK` or what
        :func:`keep_intervals` raised it to), counted in
        ``repro_plan_memo_{hits,misses}_total{kind}``."""
        counters = (_PLAN_HITS.labels(kind=kind), _PLAN_MISSES.labels(kind=kind))
        bound = PLANS_PER_NETWORK if kind in ("plan", "always_on") else _table.intervals
        return self.memo(kind, key, build, counters, bound)


class _Table:
    """The process's network entries by content, in LRU order, and beside
    them its calibrations."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[HashedKey, NetworkEntry]" = OrderedDict()
        #: Calibrations by what a calibration reads (:mod:`repro.traffic.scaling`):
        #: unbounded, and apart from the entries, so calibrating a network
        #: neither makes an entry nor evicts one.
        self.calibrations = Memo()
        #: GreenTE solves, and apart from them ECMP evaluations, an entry keeps.
        self.intervals = INTERVALS_PER_NETWORK


_table = _Table()


def network_entry(topology: Topology) -> NetworkEntry:
    """The process's entry for *topology*'s network content, made on first use."""
    key = topology.index().content_key
    table = _table
    with table.lock:
        entry = table.entries.get(key)
        if entry is None:
            entry = table.entries[key] = NetworkEntry(topology)
            if len(table.entries) > SHARED_NETWORKS:
                table.entries.popitem(last=False)
        else:
            table.entries.move_to_end(key)
    return entry


def keep_intervals(count: int) -> None:
    """Let every entry keep at least *count* GreenTE solves, and apart from
    them ECMP evaluations, from now on: a scenario group asks for the
    intervals its schemes step (:func:`~repro.scenario.engine.build_scenario_group`)."""
    table = _table
    with table.lock:
        table.intervals = max(table.intervals, count)


def calibration_memo() -> Memo:
    """The process's calibrations (:func:`~repro.traffic.calibrate_max_load`)."""
    return _table.calibrations


def clear_network_table() -> None:
    """Forget every network entry and calibration: later solves enumerate
    paths, calibrate and build plans from scratch.

    A forked child starts this way, so it never inherits a lock another
    thread of its parent held at the fork.
    """
    global _table
    _table = _Table()


os.register_at_fork(after_in_child=clear_network_table)
