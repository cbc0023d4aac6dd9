"""Run-time network state of the flow-level simulator.

The network keeps two synchronised views of its state: the per-link
:class:`~repro.simulator.links.SimulatedLink` state machines (the mutable
source of truth for sleep/wake/failure transitions) and a dense
integer-indexed :class:`~repro.topology.index.TopologyIndex` over which the
per-step rate allocation and utilisation bookkeeping run as NumPy array
operations (see :mod:`repro.simulator.fairness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..exceptions import SimulationError
from ..obs import metrics, trace
from ..power.accounting import full_power, network_power
from ..power.model import PowerModel
from ..routing.paths import Path
from ..topology.base import Topology, link_key
from .fairness import Incidence, last_kernel_stats, max_min_fair_rates
from .flows import Flow, offered_load_vector
from .links import LinkState, SimulatedLink

#: Default wake-up delay (the ns-2 experiments' conservative 5 s bound).
DEFAULT_WAKE_DELAY_S = 5.0

#: Single-entry compiled flow-set cache churn, registry-wide (one counter
#: pair shared by every SimulatedNetwork in the process).
_FLOWSET_HITS = metrics.counter(
    "repro_flowset_cache_hits_total", "Compiled flow-set cache hits"
)
_FLOWSET_MISSES = metrics.counter(
    "repro_flowset_cache_misses_total", "Compiled flow-set cache rebuilds"
)


@dataclass
class _CompiledFlowSet:
    """Routable-flow filtering and incidence for one (link state, flow set) pair.

    ``allocate_rates`` and ``allocate_aggregated`` are called once per
    simulated interval with an unchanged flow set most of the time
    (controllers reassign ``flow.path`` only on recomputation, an aggregated
    table is immutable), so rebuilding the usable vector, walking every path
    through ``compile_path`` and assembling the incidence on every call would
    be wasted work.  This entry caches all of that behind the link state-code
    vector plus object identities — of each flow's path, or of the
    aggregated table; ``held`` keeps strong references so the cached ``id()``
    keys cannot be recycled while the entry lives.
    """

    state_bytes: bytes
    flows_key: Tuple[int, ...]
    held: object
    #: Indices (into the caller's flow order) of the flows that get a rate.
    routable_indices: Union[List[int], np.ndarray]
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
        self._links: Dict[Tuple[str, str], SimulatedLink] = {}
        for link in topology.links():
            self._links[link.key] = SimulatedLink(
                key=link.key,
                capacity_bps=link.capacity_bps,
                latency_s=link.latency_s,
                wake_delay_s=self.wake_delay_s,
            )
        self._index = topology.index()
        #: Link objects in index order (aligned with link indices).
        self._link_list: List[SimulatedLink] = [
            self._links[key] for key in self._index.link_keys
        ]
        # Allocation shares the parent link's (per-direction) capacity, as
        # stored on the SimulatedLink — utilisation accounting instead uses
        # the topology's declared per-arc capacity (TopologyIndex.arc_capacity).
        self._alloc_capacity = np.array(
            [link.capacity_bps for link in self._link_list], dtype=float
        )[self._index.arc_link]
        self._arc_load_vec = np.zeros(self._index.num_arcs, dtype=float)
        self._baseline_power_w = (
            full_power(topology, power_model).total_w if power_model else 0.0
        )
        #: Single-entry cache of the last routable-flow compilation.
        self._compiled_flows: Optional[_CompiledFlowSet] = None

    # ------------------------------------------------------------------ #
    # Link state management
    # ------------------------------------------------------------------ #
    def link(self, u: str, v: str) -> SimulatedLink:
        """The simulated link between two nodes."""
        try:
            return self._links[link_key(u, v)]
        except KeyError:
            raise SimulationError(f"no link between {u!r} and {v!r}") from None

    def links(self) -> List[SimulatedLink]:
        """All simulated links."""
        return list(self._links.values())

    def sleep_idle_links(self, keep_active: np.ndarray) -> None:
        """Put to sleep every active link the per-link mask (link-index
        order, ``Topology.index().link_mask``) does not keep."""
        for simulated, keep in zip(self._link_list, keep_active.tolist(), strict=True):
            if not keep and simulated.state == LinkState.ACTIVE:
                simulated.sleep()

    def request_wake(self, links: Iterable[Tuple[str, str]], now_s: float) -> None:
        """Start waking the listed links."""
        for u, v in links:
            self.link(u, v).request_wake(now_s)

    def fail_link(self, u: str, v: str) -> None:
        """Fail the link between two nodes."""
        self.link(u, v).fail()

    def repair_link(self, u: str, v: str) -> None:
        """Repair the link between two nodes."""
        self.link(u, v).repair()

    def advance(self, now_s: float) -> None:
        """Advance all link state machines to *now_s*."""
        for simulated in self._links.values():
            simulated.advance(now_s)

    # ------------------------------------------------------------------ #
    # Path usability and rate allocation
    # ------------------------------------------------------------------ #
    def path_is_usable(self, path: Path) -> bool:
        """Whether every link along the path is active."""
        return all(self._links[key].is_usable for key in path.link_keys())

    def max_rtt(self) -> float:
        """An upper bound on the network round-trip time (diameter based)."""
        diameter_latency = sum(
            sorted((link.latency_s for link in self._links.values()), reverse=True)
        )
        return 2.0 * diameter_latency if self._links else 0.0

    def allocate_rates(self, flows: List[Flow], now_s: float = 0.0) -> None:
        """Max-min fair allocation of flow rates over usable paths.

        Flows whose path is unusable (failed, sleeping or waking link) or
        unassigned receive rate zero.  Every other flow receives at most its
        offered demand at time *now_s*; progressive filling shares bottleneck
        capacity equally among the unfrozen flows crossing it.

        The computation is fully vectorized: flow paths are compiled to arc
        index arrays once (memoised) and each filling iteration is a few
        NumPy reductions plus two CSR mat-vecs over the flows×arcs incidence
        — see :func:`repro.simulator.fairness.max_min_fair_rates`.  The
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

        routable = [flows[index] for index in entry.routable_indices]
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
        state_bytes = self.link_state_codes().tobytes()
        cached = self._compiled_flows
        if (
            cached is not None
            and cached.state_bytes == state_bytes
            and cached.flows_key == key
        ):
            _FLOWSET_HITS.inc()
            return cached
        _FLOWSET_MISSES.inc()

        usable = self.link_usable_vector()
        kept: List[int] = []
        arcs_of_row: List[np.ndarray] = []
        for index, path in enumerate(paths):
            if path is None:
                continue
            compiled = self._index.compile_path(path)
            if compiled.link_indices.size == 0 or bool(
                usable[compiled.link_indices].all()
            ):
                kept.append(index)
                arcs_of_row.append(compiled.arc_indices)
        routable: Union[List[int], np.ndarray] = kept
        row_of_flow: Optional[np.ndarray] = None
        if flow_group is not None:
            # Dense rows in path order (== the per-flow engine's flow-major
            # compile order); the spare last slot is where group -1 lands.
            row_of_path = np.full(len(paths) + 1, -1, dtype=np.int64)
            row_of_path[kept] = np.arange(len(kept), dtype=np.int64)
            row_of_flow = row_of_path[flow_group]
            routable = np.flatnonzero(row_of_flow >= 0)
            row_of_flow = row_of_flow[routable]
        entry = _CompiledFlowSet(
            state_bytes=state_bytes,
            flows_key=key,
            held=list(paths) if owner is None else owner,
            routable_indices=routable,
            incidence=Incidence(arcs_of_row, self._index.num_arcs, row_of_flow),
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
        """Boolean usability per link, in link-index order."""
        return np.fromiter(
            (link.state is LinkState.ACTIVE for link in self._link_list),
            dtype=bool,
            count=len(self._link_list),
        )

    def link_state_codes(self) -> np.ndarray:
        """Integer state code per link (``LinkState.code`` order).

        ``np.bincount(codes, minlength=NUM_LINK_STATES)`` yields the
        active/sleeping/waking/failed histogram in one call.
        """
        return np.fromiter(
            (link.state.code for link in self._link_list),
            dtype=np.int64,
            count=len(self._link_list),
        )

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
        active_links = {
            key for key, simulated in self._links.items() if simulated.consumes_power
        }
        active_nodes: Set[str] = set()
        # repro: allow[REP104] pure set union; the result is itself a set
        for u, v in active_links:
            active_nodes.add(u)
            active_nodes.add(v)
        for name in self.topology.nodes():
            if self.topology.node(name).always_powered:
                active_nodes.add(name)
        return active_nodes, active_links

    def power_percent(self) -> float:
        """Current power as a percentage of the fully powered network."""
        if self.power_model is None or self._baseline_power_w <= 0:
            return 100.0
        nodes, links = self.active_elements()
        current = network_power(self.topology, self.power_model, nodes, links).total_w
        return 100.0 * current / self._baseline_power_w
