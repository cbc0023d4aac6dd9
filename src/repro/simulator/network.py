"""Run-time network state of the flow-level simulator.

Link state is two arrays in :meth:`Topology.index` link order — a
:class:`LinkState` code and a wake-up deadline per link — so every
sleep/wake/failure transition and every read is a NumPy array operation,
as are the per-step rate allocation and utilisation bookkeeping (see
:mod:`repro.simulator.fairness`).

Network elements in REsPoNse can be asleep, awake or failed; waking a
sleeping element takes a hardware-dependent delay (the paper uses 10 ms for
the Click experiment — "the estimated activation times of future hardware" —
and 5 s for the ns-2 experiments — "an upper bound on the time reported to
power on a network port in existing hardware").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..obs import metrics, trace
from ..power.accounting import full_power, network_power
from ..power.model import PowerModel
from ..routing.paths import Path
from ..topology.base import Topology, link_key
from ..topology.index import TopologyIndex
from .fairness import Incidence, last_kernel_stats, max_min_fair_rates
from .flows import Flow, offered_load_vector

#: Default wake-up delay (the ns-2 experiments' conservative 5 s bound).
DEFAULT_WAKE_DELAY_S = 5.0


class LinkState(enum.IntEnum):
    """Power/availability state of an undirected link; the value is the code
    :meth:`SimulatedNetwork.link_state_codes` holds, so
    ``np.bincount(codes, minlength=len(LinkState))`` is the histogram."""

    ACTIVE = 0
    SLEEPING = 1
    WAKING = 2
    FAILED = 3


#: Single-entry compiled flow-set cache churn, registry-wide (one counter
#: pair shared by every SimulatedNetwork in the process).
_FLOWSET_HITS = metrics.counter(
    "repro_flowset_cache_hits_total", "Compiled flow-set cache hits"
)
_FLOWSET_MISSES = metrics.counter(
    "repro_flowset_cache_misses_total", "Compiled flow-set cache rebuilds"
)


@dataclass(frozen=True)
class _LoweredPaths:
    """Every hop of a flow set's paths as flat arrays, path after path."""

    #: Arc and link of every hop.
    hop_arcs: np.ndarray
    hop_links: np.ndarray
    #: The path each hop belongs to.
    path_of_hop: np.ndarray
    #: Hops per path (0 for a zero-hop path and for a missing one).
    hops: np.ndarray
    #: Whether each entry has a path at all (``None`` never routes).
    present: np.ndarray


def _lower(index: TopologyIndex, paths: Sequence[Optional[Path]]) -> _LoweredPaths:
    """The hops of *paths*, each path compiled once."""
    compiled = [None if path is None else index.compile_path(path) for path in paths]
    hops = np.array(
        [0 if path is None else path.arc_indices.size for path in compiled], dtype=np.int64
    )
    present = np.array([path is not None for path in compiled], dtype=bool)
    kept = [path for path in compiled if path is not None]
    empty = np.zeros(0, dtype=np.int64)
    return _LoweredPaths(
        hop_arcs=np.concatenate([empty, *(path.arc_indices for path in kept)]),
        hop_links=np.concatenate([empty, *(path.link_indices for path in kept)]),
        path_of_hop=np.arange(len(paths), dtype=np.int64).repeat(hops),
        hops=hops,
        present=present,
    )


@dataclass
class _CompiledFlowSet:
    """Routable-flow filtering and incidence for one (link state, flow set) pair.

    ``allocate_rates`` and ``allocate_aggregated`` are called once per
    simulated interval with an unchanged flow set most of the time
    (controllers reassign ``flow.path`` only on recomputation, an aggregated
    table is immutable), so rebuilding the usable vector, filtering the
    paths and assembling the incidence on every call would be wasted work.
    This entry caches all of that behind the link state-code vector plus
    object identities — of each flow's path, or of the aggregated table;
    ``held`` keeps strong references so the cached ``id()`` keys cannot be
    recycled while the entry lives.  ``lowered`` outlives a link-state
    change: the next entry for the same key re-filters it.
    """

    state_bytes: bytes
    flows_key: Tuple[int, ...]
    held: object
    lowered: _LoweredPaths
    #: Indices (into the caller's flow order) of the flows that get a rate.
    routable_indices: np.ndarray
    incidence: Incidence


class SimulatedNetwork:
    """Topology plus per-link power/failure state and per-arc load tracking."""

    def __init__(
        self,
        topology: Topology,
        power_model: Optional[PowerModel] = None,
        wake_delay_s: float = DEFAULT_WAKE_DELAY_S,
    ) -> None:
        self.topology = topology
        self.power_model = power_model
        self.wake_delay_s = float(wake_delay_s)
        self._index = topology.index()
        num_links = len(self._index.link_keys)
        self._state = np.full(num_links, LinkState.ACTIVE, dtype=np.int64)
        #: When each WAKING link becomes ACTIVE; ``inf`` for every other link.
        self._wake_at = np.full(num_links, np.inf)
        # Allocation shares the parent link's (per-direction) capacity —
        # utilisation accounting instead uses the topology's declared
        # per-arc capacity (TopologyIndex.arc_capacity).
        self._alloc_capacity: np.ndarray = np.array(
            [topology.link(*key).capacity_bps for key in self._index.link_keys], dtype=float
        )[self._index.arc_link]
        self._arc_load_vec = np.zeros(self._index.num_arcs, dtype=float)
        self._baseline_power_w = (
            full_power(topology, power_model).total_w if power_model else 0.0
        )
        #: Single-entry cache of the last routable-flow compilation.
        self._compiled_flows: Optional[_CompiledFlowSet] = None

    # ------------------------------------------------------------------ #
    # Link state transitions
    # ------------------------------------------------------------------ #
    def _link(self, u: str, v: str) -> int:
        try:
            return self._index.link_index[link_key(u, v)]
        except KeyError:
            raise SimulationError(f"no link between {u!r} and {v!r}") from None

    def sleep_idle_links(self, keep_active: np.ndarray) -> None:
        """Put to sleep every active link the per-link mask (link-index
        order, ``Topology.index().link_mask``) does not keep."""
        self._state[~keep_active & (self._state == LinkState.ACTIVE)] = LinkState.SLEEPING

    def request_wake(self, links: np.ndarray, now_s: float) -> None:
        """Start waking the sleeping links among *links* (link indices); each
        becomes active ``wake_delay_s`` later (failed links stay failed)."""
        asleep = links[self._state[links] == LinkState.SLEEPING]
        self._state[asleep] = LinkState.WAKING
        self._wake_at[asleep] = now_s + self.wake_delay_s

    def fail_link(self, u: str, v: str) -> None:
        """Fail the link between two nodes (it stops carrying traffic now)."""
        link = self._link(u, v)
        self._state[link] = LinkState.FAILED
        self._wake_at[link] = np.inf

    def repair_link(self, u: str, v: str) -> None:
        """Repair the link between two nodes; a failed link comes back active."""
        link = self._link(u, v)
        if self._state[link] == LinkState.FAILED:
            self._state[link] = LinkState.ACTIVE

    def advance(self, now_s: float) -> None:
        """Complete every pending wake-up whose delay has elapsed by *now_s*."""
        ready = self._wake_at <= now_s + 1e-12
        self._state[ready] = LinkState.ACTIVE
        self._wake_at[ready] = np.inf

    # ------------------------------------------------------------------ #
    # Path usability and rate allocation
    # ------------------------------------------------------------------ #
    def path_is_usable(self, path: Path) -> bool:
        """Whether every link along the path is active."""
        links = self._index.compile_path(path).link_indices
        return bool((self._state[links] == LinkState.ACTIVE).all())

    def max_rtt(self) -> float:
        """An upper bound on the network round-trip time: twice the sum of
        every link's latency."""
        latencies = [link.latency_s for link in self.topology.links()]
        return 2.0 * sum(sorted(latencies, reverse=True))

    def allocate_rates(self, flows: List[Flow], now_s: float = 0.0) -> None:
        """Max-min fair allocation of flow rates over usable paths.

        Flows whose path is unusable (failed, sleeping or waking link) or
        unassigned receive rate zero.  Every other flow receives at most its
        offered demand at time *now_s*; progressive filling shares bottleneck
        capacity equally among the unfrozen flows crossing it.

        The computation is fully vectorized: flow paths are compiled to arc
        index arrays once (memoised) and each filling iteration is a few
        NumPy operations over the arc vector and what froze — see
        :func:`repro.simulator.fairness.max_min_fair_rates`.  The
        dict-based seed algorithm survives as the oracle in
        :mod:`repro.simulator.reference`.

        The routable-flow filtering and the incidence are cached behind the
        link state-code vector and the flows' path identities
        (:meth:`compiled_flow_set`).
        """
        self._arc_load_vec[:] = 0.0
        for flow in flows:
            flow.rate_bps = 0.0
        if not flows:
            return

        entry = self.compiled_flow_set([flow.path for flow in flows])
        if len(entry.routable_indices) == 0:
            return

        routable = [flows[index] for index in entry.routable_indices.tolist()]
        demands = offered_load_vector(routable, now_s)
        with trace.span(
            "fairness.kernel", flows=len(routable), arcs=self._index.num_arcs
        ) as kernel_span:
            allocation = max_min_fair_rates(
                demands, self._alloc_capacity, entry.incidence
            )
            if trace.tracing_enabled():
                kernel_span.set(**last_kernel_stats())
        for flow, rate in zip(routable, allocation, strict=True):
            flow.rate_bps = float(rate)
        # Row a of arc_group lists the flows crossing arc a in flow order, so
        # each arc's load accumulates in the same order on every call.
        self._arc_load_vec += entry.incidence.arc_group @ allocation

    def compiled_flow_set(
        self,
        paths: Sequence[Optional[Path]],
        flow_group: Optional[np.ndarray] = None,
        owner: Optional[object] = None,
    ) -> _CompiledFlowSet:
        """The cached routable filtering/incidence for the current state.

        One incidence row per usable entry of *paths*.  With
        ``flow_group=None`` entry ``f`` is flow ``f``'s path; otherwise
        ``flow_group[f]`` names the entry flow ``f`` follows (``-1``: no
        path).  *owner* is the immutable value that fixes both (an
        aggregated table); its identity keys the entry, and without one
        the identity of every path does.

        Valid while every link keeps its state code and the key matches; any
        sleep/wake/failure transition, controller path reassignment or
        other flow set changes the key and forces a rebuild.
        """
        key = tuple(map(id, paths)) if owner is None else (id(owner),)
        state_bytes = self._state.tobytes()
        cached = self._compiled_flows
        if (
            cached is not None
            and cached.state_bytes == state_bytes
            and cached.flows_key == key
        ):
            _FLOWSET_HITS.inc()
            return cached
        _FLOWSET_MISSES.inc()

        lowered = (
            cached.lowered
            if cached is not None and cached.flows_key == key
            else _lower(self._index, paths)
        )
        # A path routes when it exists and none of its hops is unusable.
        blocked = np.bincount(
            lowered.path_of_hop[~self.link_usable_vector()[lowered.hop_links]],
            minlength=len(paths),
        )
        usable_path = lowered.present & (blocked == 0)
        kept = np.flatnonzero(usable_path)
        indptr = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(lowered.hops[kept], out=indptr[1:])
        indices = lowered.hop_arcs[usable_path[lowered.path_of_hop]]
        routable = kept
        row_of_flow: Optional[np.ndarray] = None
        if flow_group is not None:
            # Dense rows in path order (== the per-flow engine's flow-major
            # compile order); the spare last slot is where group -1 lands.
            row_of_path = np.full(len(paths) + 1, -1, dtype=np.int64)
            row_of_path[kept] = np.arange(kept.size, dtype=np.int64)
            row_of_flow = row_of_path[flow_group]
            routable = np.flatnonzero(row_of_flow >= 0)
            row_of_flow = row_of_flow[routable]
        entry = _CompiledFlowSet(
            state_bytes=state_bytes,
            flows_key=key,
            held=list(paths) if owner is None else owner,
            lowered=lowered,
            routable_indices=routable,
            incidence=Incidence.from_csr(indptr, indices, self._index.num_arcs, row_of_flow),
        )
        self._compiled_flows = entry
        return entry

    # ------------------------------------------------------------------ #
    # Array-indexed views (the vectorized engine's fast path)
    # ------------------------------------------------------------------ #
    @property
    def alloc_capacity(self) -> np.ndarray:
        """Per-arc allocation capacity (the parent link's, per direction).

        The live internal buffer the fairness loop reads — callers must
        not mutate it.
        """
        return self._alloc_capacity

    def link_usable_vector(self) -> np.ndarray:
        """Boolean usability (state ACTIVE) per link, in link-index order."""
        usable: np.ndarray = self._state == LinkState.ACTIVE
        return usable

    def link_state_codes(self) -> np.ndarray:
        """A copy of the :class:`LinkState` code per link, in link-index order."""
        return self._state.copy()

    def arc_load_vector(self) -> np.ndarray:
        """Per-arc load (bps) from the last allocation, in arc-index order.

        The returned array is the live internal buffer — callers that want
        to mutate it (e.g. the TE controller's planned view) must copy.
        """
        return self._arc_load_vec

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def arc_load(self, src: str, dst: str) -> float:
        """Load on the directed arc ``src -> dst`` from the last allocation."""
        index = self._index.arc_index.get((src, dst))
        return float(self._arc_load_vec[index]) if index is not None else 0.0

    def active_elements(self) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        """Nodes and links currently drawing power.

        A link draws power when active or waking; a node draws power when it
        has at least one such link (or is marked always-powered).
        """
        powered = (self._state == LinkState.ACTIVE) | (self._state == LinkState.WAKING)
        keys = [self._index.link_keys[link] for link in np.flatnonzero(powered).tolist()]
        active_nodes = {name for key in keys for name in key}
        active_nodes.update(
            name for name in self.topology.nodes() if self.topology.node(name).always_powered
        )
        return active_nodes, set(keys)

    def power_percent(self) -> float:
        """Current power as a percentage of the fully powered network."""
        if self.power_model is None or self._baseline_power_w <= 0:
            return 100.0
        nodes, links = self.active_elements()
        current = network_power(self.topology, self.power_model, nodes, links).total_w
        return 100.0 * current / self._baseline_power_w
