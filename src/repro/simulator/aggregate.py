"""Array-native aggregated flow tables for the million-flow scale axis.

At 10^5–10^6 flows the engine's wall is not the fairness arithmetic but the
per-flow Python objects around it: one :class:`~repro.simulator.flows.Flow`
dataclass plus a demand closure per flow, and a flows×arcs incidence with
one row per flow.  "Millions of users" traffic is massively redundant,
though — every user flow between the same endpoints follows the same routed
path — so this module stores flows as dense arrays grouped by identical
path and allocates through the same
:func:`~repro.simulator.fairness.max_min_fair_rates` loop over a
groups×arcs :class:`~repro.simulator.fairness.Incidence`, whose output is
**bit-identical** to the one-row-per-flow incidence of the expanded problem
(the exact-equivalence contract, property-tested in
``tests/test_property_based.py``).

The memory story: per-flow state shrinks to a handful of float64/int64
vectors and the incidence shrinks from O(flows × hops) to O(groups × hops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..obs import trace
from ..routing.paths import Path
from .fairness import Incidence, last_kernel_stats, max_min_fair_rates
from .flows import Flow
from .network import SimulatedNetwork

#: Group index assigned to flows with no path (never allocated).
UNROUTED_GROUP = -1


@dataclass(frozen=True)
class AggregatedFlows:
    """Flows stored as arrays, grouped by identical routed path.

    Attributes:
        paths: The routed path of each group, in group-index order.
        flow_group: Group index per flow (``UNROUTED_GROUP`` for flows
            without a path), aligned with the flow order the table was
            built from.
        demands_bps: Base offered load per flow (bps), same alignment.
    """

    paths: Tuple[Path, ...]
    flow_group: np.ndarray
    demands_bps: np.ndarray

    def __post_init__(self) -> None:
        if self.flow_group.shape != self.demands_bps.shape:
            raise SimulationError(
                "flow_group and demands_bps must align, got "
                f"{self.flow_group.shape} vs {self.demands_bps.shape}"
            )
        if self.flow_group.size and int(self.flow_group.min()) < UNROUTED_GROUP:
            raise SimulationError(
                f"flow_group holds {int(self.flow_group.min())}; the only "
                f"negative group id is UNROUTED_GROUP ({UNROUTED_GROUP})"
            )
        if self.flow_group.size and int(self.flow_group.max()) >= len(self.paths):
            raise SimulationError(
                f"flow_group references group {int(self.flow_group.max())} "
                f"but only {len(self.paths)} paths are defined"
            )

    @property
    def num_flows(self) -> int:
        """Total member flows in the table."""
        return int(self.flow_group.size)

    @property
    def num_groups(self) -> int:
        """Number of distinct routed paths."""
        return len(self.paths)

    def member_counts(self) -> np.ndarray:
        """Member flows per group."""
        routed = self.flow_group[self.flow_group != UNROUTED_GROUP]
        return np.bincount(routed, minlength=self.num_groups)

    def nbytes(self) -> int:
        """Resident bytes of the per-flow arrays (the scale-axis footprint)."""
        return int(self.flow_group.nbytes + self.demands_bps.nbytes)

    @classmethod
    def from_flows(cls, flows: Sequence[Flow], now_s: float = 0.0) -> "AggregatedFlows":
        """Group a ``Flow`` list by path identity, sampling demands at *now_s*.

        Flow order is preserved (rates from :func:`allocate_aggregated`
        align with the input), and groups appear in first-seen order, which
        matches the flow-major order the per-flow engine compiles paths in.
        """
        paths: List[Path] = []
        group_of: Dict[Tuple[str, ...], int] = {}
        flow_group = np.empty(len(flows), dtype=np.int64)
        demands = np.empty(len(flows), dtype=float)
        for index, flow in enumerate(flows):
            demands[index] = flow.offered_load(now_s)
            if flow.path is None:
                flow_group[index] = UNROUTED_GROUP
                continue
            group = group_of.get(flow.path.nodes)
            if group is None:
                group = len(paths)
                group_of[flow.path.nodes] = group
                paths.append(flow.path)
            flow_group[index] = group
        return cls(
            paths=tuple(paths), flow_group=flow_group, demands_bps=demands
        )

    @classmethod
    def from_arrays(
        cls,
        paths: Sequence[Path],
        flow_group: np.ndarray,
        demands_bps: np.ndarray,
    ) -> "AggregatedFlows":
        """Build directly from arrays (no ``Flow`` objects — the scale path)."""
        return cls(
            paths=tuple(paths),
            flow_group=np.asarray(flow_group, dtype=np.int64),
            demands_bps=np.asarray(demands_bps, dtype=float),
        )


def allocate_aggregated(
    network: SimulatedNetwork,
    table: AggregatedFlows,
    demands_bps: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-flow max-min fair rates for an aggregated table — a pure query.

    Filters group paths by link usability exactly as
    :meth:`~repro.simulator.network.SimulatedNetwork.allocate_rates` filters
    per-flow paths, then allocates over the groups×arcs incidence.  The
    returned per-flow rate vector is bit-identical to building one ``Flow``
    per member and calling ``allocate_rates`` (unroutable and unrouted flows
    get rate zero); network flow rates and arc loads are left untouched.

    Args:
        demands_bps: Offered load per flow; defaults to the table's base
            demands.
    """
    demands = (
        table.demands_bps
        if demands_bps is None
        else np.asarray(demands_bps, dtype=float)
    )
    if demands.shape != table.flow_group.shape:
        raise SimulationError(
            f"demand vector shape {demands.shape} does not match "
            f"{table.num_flows} flows"
        )
    rates = np.zeros(table.num_flows, dtype=float)
    if table.num_flows == 0:
        return rates

    usable = network.link_usable_vector()
    arc_table = network.arc_table
    compiled = [arc_table.compile_path(path) for path in table.paths]
    kept: List[int] = []
    arcs_of_group: List[np.ndarray] = []
    for group, path in enumerate(compiled):
        if path.link_indices.size == 0 or bool(usable[path.link_indices].all()):
            kept.append(group)
            arcs_of_group.append(path.arc_indices)
    if not kept:
        return rates

    # Remap the routable groups to a dense 0..K-1 index space, keeping the
    # original group order (== the per-flow engine's flow-major compile order).
    remap = np.full(table.num_groups, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept), dtype=np.int64)
    routed = table.flow_group != UNROUTED_GROUP
    flow_ok = routed.copy()
    flow_ok[routed] = remap[table.flow_group[routed]] >= 0
    if not flow_ok.any():
        return rates

    incidence = Incidence(
        arcs_of_group, arc_table.num_arcs, remap[table.flow_group[flow_ok]]
    )
    with trace.span(
        "fairness.kernel", flows=int(flow_ok.sum()), groups=len(kept)
    ) as kernel_span:
        allocation = max_min_fair_rates(
            demands[flow_ok], network.alloc_capacity, incidence
        )
        if trace.tracing_enabled():
            kernel_span.set(**last_kernel_stats())
    rates[flow_ok] = allocation
    return rates
