"""Max-min fair-share computation: one progressive-filling loop, one incidence.

The allocation follows the classic progressive-filling algorithm: all
unfrozen flows grow their rate at the same pace until one of them reaches its
demand or some arc runs out of capacity; the affected flows freeze and the
filling continues with the rest.  The seed implementation walked Python
dictionaries per flow and per arc on every iteration; :func:`max_min_fair_rates`
keeps every per-flow quantity in a NumPy vector and asks an
:class:`Incidence` — a CSR groups×arcs matrix plus its transpose — for the
only two reductions that involve paths: how many active flows cross each
arc, and which flows cross an exhausted arc.  Both are sums of small
integers, exact in float64 in any order, so the result does not depend on
whether flows are listed one per row or grouped by shared path.

The dict-based seed algorithm is preserved verbatim in
:mod:`repro.simulator.reference` and serves as the property-test oracle; the
two implementations are step-for-step equivalent, including the freezing
thresholds and termination conditions.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from ..obs import trace as _trace

#: A flow freezes when its unserved demand drops below this (bps).
DEMAND_EPSILON = 1e-9
#: An arc is exhausted when its remaining capacity drops below this (bps).
CAPACITY_EPSILON = 1e-9
#: Progressive filling stops when an iteration makes no real progress.
STEP_EPSILON = 1e-12

#: Per-thread record of the most recent progressive-filling run, read by
#: the ``fairness.kernel`` spans in :mod:`repro.simulator.network` and
#: :mod:`repro.simulator.aggregate`.  The iteration count is always
#: maintained (one integer add per filling iteration); the
#: frozen-per-iteration breakdown is gathered only while tracing is enabled.
_kernel_stats = threading.local()


def _record_kernel_stats(iterations: int, frozen: Optional[List[int]]) -> None:
    _kernel_stats.iterations = iterations
    _kernel_stats.frozen = frozen


def last_kernel_stats() -> Dict[str, object]:
    """Iterations (and, when traced, frozen flows per iteration) of the
    last progressive-filling run on this thread."""
    stats: Dict[str, object] = {
        "iterations": int(getattr(_kernel_stats, "iterations", 0))
    }
    frozen = getattr(_kernel_stats, "frozen", None)
    if frozen is not None:
        stats["frozen_per_iteration"] = list(frozen)
    return stats


class Incidence:
    """Which arcs each routed path crosses, as CSR matrices in both directions.

    Rows of :attr:`group_arc` are *groups* — sets of flows sharing one
    routed path.  With ``flow_group=None`` every group holds exactly one
    flow (row ``f`` is flow ``f``); otherwise ``flow_group[f]`` names the
    group of flow ``f`` and a group may hold any number of flows, including
    none.  Per-flow state never enters the matrices, so the storage is
    O(groups × hops) however many flows share a path.

    An arc listed twice in one group's row counts twice, like one entry
    per hop would.

    Args:
        arcs_of_group: Arc indices crossed by each group, in group order.
        num_arcs: Width of the arc table (capacity vectors align with it).
        flow_group: Group index per flow, or ``None`` for one flow per group.
    """

    def __init__(
        self,
        arcs_of_group: Sequence[np.ndarray],
        num_arcs: int,
        flow_group: Optional[np.ndarray] = None,
    ) -> None:
        num_groups = len(arcs_of_group)
        indptr = np.zeros(num_groups + 1, dtype=np.int64)
        np.cumsum([arcs.size for arcs in arcs_of_group], dtype=np.int64, out=indptr[1:])
        indices = np.concatenate([np.zeros(0, dtype=np.int64), *arcs_of_group])
        #: groups×arcs — row g holds the arcs group g crosses.
        self.group_arc = sparse.csr_matrix(
            (np.ones(indices.size), indices, indptr), shape=(num_groups, num_arcs)
        )
        #: arcs×groups — the transpose, for per-arc count reductions.
        self.arc_group = self.group_arc.T.tocsr()
        self.flow_group = flow_group
        populated = (
            np.ones(num_groups)
            if flow_group is None
            else (np.bincount(flow_group, minlength=num_groups) > 0).astype(np.float64)
        )
        #: Arcs crossed by at least one flow.  Empty groups put no flow on
        #: their arcs, so they must not count here: the iteration bound and
        #: the exhausted-arc set both derive from this mask.
        self.crossed_at_all: np.ndarray = self.arc_group @ populated > 0

    def arc_counts(self, active: np.ndarray) -> np.ndarray:
        """Number of active flows crossing each arc (exact, as float64)."""
        if self.flow_group is None:
            members = active.astype(np.float64)
        else:
            members = np.bincount(
                self.flow_group[active], minlength=self.group_arc.shape[0]
            ).astype(np.float64)
        counts: np.ndarray = self.arc_group @ members
        return counts

    def flows_touching(self, arc_mask: np.ndarray) -> np.ndarray:
        """Boolean per flow: does the flow cross any arc in *arc_mask*?"""
        hit: np.ndarray = self.group_arc @ arc_mask.astype(np.float64) > 0.0
        return hit if self.flow_group is None else hit[self.flow_group]


def max_min_fair_rates(
    demands: np.ndarray, arc_capacity: np.ndarray, incidence: Incidence
) -> np.ndarray:
    """Max-min fair rates for routable flows over a shared arc table.

    Args:
        demands: Offered load per flow (bps), shape ``(num_flows,)``.
        arc_capacity: Allocation capacity per arc (bps), full table length.
        incidence: The arcs each flow (or group of flows) crosses.

    Returns:
        The allocated rate per flow, aligned with *demands*.
    """
    num_flows = int(demands.shape[0])
    allocation = np.zeros(num_flows, dtype=float)
    if num_flows == 0:
        return allocation

    pending = demands.astype(float).copy()
    capacity = arc_capacity.astype(float).copy()
    crossed_at_all = incidence.crossed_at_all
    active = np.ones(num_flows, dtype=bool)

    iterations = 0
    frozen_trace: Optional[List[int]] = [] if _trace.tracing_enabled() else None
    # Each iteration freezes at least one flow or exhausts at least one arc,
    # so the filling terminates within flows + used-arcs iterations.
    for _ in range(num_flows + int(crossed_at_all.sum()) + 1):
        if not active.any():
            break
        iterations += 1
        counts = incidence.arc_counts(active)
        crossed = counts > 0
        share_limited = (
            float((capacity[crossed] / counts[crossed]).min())
            if crossed.any()
            else float("inf")
        )
        demand_limited = float(pending[active].min())
        step = min(share_limited, demand_limited)
        if step == float("inf"):
            break
        step = max(step, 0.0)
        allocation[active] += step
        pending[active] -= step
        capacity -= step * counts
        # Freeze demand-satisfied flows and flows on exhausted arcs.
        active_before = int(active.sum())
        active &= pending > DEMAND_EPSILON
        exhausted = crossed_at_all & (capacity <= CAPACITY_EPSILON)
        if exhausted.any():
            active &= ~incidence.flows_touching(exhausted)
        active_after = int(active.sum())
        if frozen_trace is not None:
            frozen_trace.append(active_before - active_after)
        # A zero step is fine as long as it froze somebody (e.g. a flow
        # whose demand is currently zero) — the filling continues for the
        # rest.  Only a zero step that freezes nobody means no progress.
        if step <= STEP_EPSILON and active_after == active_before:
            break
    _record_kernel_stats(iterations, frozen_trace)
    return allocation
