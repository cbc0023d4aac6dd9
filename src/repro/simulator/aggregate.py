"""Array-native aggregated flow tables for the million-flow scale axis.

At 10^5–10^6 flows the engine's wall is not the fairness arithmetic but the
per-flow Python objects around it: one :class:`~repro.simulator.flows.Flow`
dataclass plus a demand closure per flow, and a flows×arcs incidence with
one row per flow.  "Millions of users" traffic is massively redundant,
though — every user flow between the same endpoints follows the same routed
path, and their demands cluster on a few values — so this module stores
flows as dense arrays grouped by identical path and allocates through the
same :func:`~repro.simulator.fairness.max_min_fair_rates` loop over a
groups×arcs :class:`~repro.simulator.fairness.Incidence`.  The loop fills
over the distinct (group, demand) classes of the population, and its output
is **bit-identical** to the one-row-per-flow incidence of the expanded
problem (the exact-equivalence contract, property-tested in
``tests/test_property_based.py``).

The memory story: per-flow state is a handful of float64/int64 vectors held
only while a step runs, the incidence shrinks from O(flows × hops) to
O(groups × hops), and the usable-path filtering and incidence are reused
from step to step through the network's compiled flow set
(:meth:`~repro.simulator.network.SimulatedNetwork.compiled_flow_set`), keyed
by the link states and the table's identity — a table is an immutable value
(its ``flow_group`` is read-only); build a new one to change membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..obs import trace
from ..routing.paths import Path
from .fairness import last_kernel_stats, max_min_fair_rates
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
            built from.  A read-only array the table owns: the network
            caches what it compiled from it under the table's identity, so
            an in-place edit raises instead of serving the old membership.
        demands_bps: Base offered load per flow (bps), same alignment; read
            afresh on every allocation, so it may stay shared.
    """

    paths: Tuple[Path, ...]
    flow_group: np.ndarray
    demands_bps: np.ndarray

    def __post_init__(self) -> None:
        if self.flow_group.flags.writeable or self.flow_group.base is not None:
            owned = self.flow_group.copy()
            owned.flags.writeable = False
            object.__setattr__(self, "flow_group", owned)
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

    @classmethod
    def from_arrays(
        cls,
        paths: Sequence[Path],
        flow_group: np.ndarray,
        demands_bps: np.ndarray,
    ) -> "AggregatedFlows":
        """Build directly from arrays (no ``Flow`` objects — the scale path).

        Group ids may come as floats only if every one is a whole number.
        """
        groups = np.asarray(flow_group)
        if groups.dtype.kind not in "iu" and not (
            groups.dtype.kind == "f"
            and bool(np.isfinite(groups).all())
            and bool((groups == np.trunc(groups)).all())
        ):
            raise SimulationError(f"flow_group must hold integer group ids, got {groups!r}")
        owned = groups.astype(np.int64)  # a copy: the table's own
        owned.flags.writeable = False
        return cls(
            paths=tuple(paths),
            flow_group=owned,
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
    per-flow paths (through the same cached compiled flow set), then
    allocates over the groups×arcs incidence.  The
    returned per-flow rate vector is bit-identical to building one ``Flow``
    per member and calling ``allocate_rates`` (unroutable and unrouted flows
    get rate zero, a negative demand gets rate zero, a routable flow whose
    demand is NaN raises :class:`~repro.exceptions.SimulationError`);
    network flow rates and arc loads are left untouched.

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
    if table.num_flows == 0:
        return np.zeros(0, dtype=float)
    entry = network.compiled_flow_set(table.paths, table.flow_group, owner=table)
    routable = entry.routable_indices
    if len(routable) == 0:
        return np.zeros(table.num_flows, dtype=float)
    # With every flow routable the kernel reads and returns whole vectors.
    every = len(routable) == table.num_flows
    if not every:
        demands = demands[routable]
    missing = np.isnan(demands)
    if missing.any():
        flow = routable[int(missing.argmax())]
        raise SimulationError(f"flow {flow} has a NaN demand")
    with trace.span(
        "fairness.kernel",
        flows=len(routable),
        groups=entry.incidence.group_arc.shape[0],
    ) as kernel_span:
        allocation = max_min_fair_rates(
            demands, network.alloc_capacity, entry.incidence
        )
        if trace.tracing_enabled():
            kernel_span.set(**last_kernel_stats())
    if every:
        return allocation
    rates = np.zeros(table.num_flows, dtype=float)
    rates[routable] = allocation
    return rates
