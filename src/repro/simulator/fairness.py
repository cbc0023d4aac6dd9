"""Max-min fair-share computation: one progressive-filling loop, one incidence.

The allocation follows the classic progressive-filling algorithm: all
unfrozen flows grow their rate at the same pace until one of them reaches its
demand or some arc runs out of capacity; the affected flows freeze and the
filling continues with the rest.  The seed implementation walked Python
dictionaries per flow and per arc on every iteration; :func:`max_min_fair_rates`
keeps its state in NumPy vectors and asks an :class:`Incidence` — a CSR
groups×arcs matrix plus its transpose — for the only two reductions that
involve paths: how many active flows cross each arc, and which groups cross
an exhausted arc.  Both are sums of small integers, exact in float64 in any
order, so the result does not depend on whether flows are listed one per row
or grouped by shared path.

The loop's state is per **class**, not per flow.  A class is a distinct
(group, demand bit pattern) pair with a member count.  Every active flow's
rate is the same left-to-right float sum of the steps so far and its unserved
demand is ``d - s1 - s2 ...`` in the same order, so two flows of one group
with the same demand bits are indistinguishable at every iteration;
multiplicity enters only the per-arc counts, which are exact.  The rates are
therefore bit-identical to filling flow by flow, and a step costs what its
distinct (path, demand) pairs cost: 204 800 flows drawn from four demand
values over 1 280 paths fill as 5 120 classes.  The filling freezes one
distinct demand per iteration, so a population whose demands are all distinct
takes one iteration per flow with or without classes — clustered demand is
the traffic this engine serves at scale.

The dict-based seed algorithm is preserved verbatim in
:mod:`repro.simulator.reference` and serves as the property-test oracle; the
two implementations are step-for-step equivalent, including the freezing
thresholds and termination conditions.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

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
#: :mod:`repro.simulator.aggregate`.  The iteration and class counts are
#: always maintained (one integer add per filling iteration); the
#: frozen-per-iteration breakdown is gathered only while tracing is enabled.
_kernel_stats = threading.local()


def _record_kernel_stats(
    iterations: int, classes: int, frozen: Optional[List[int]]
) -> None:
    _kernel_stats.iterations = iterations
    _kernel_stats.classes = classes
    _kernel_stats.frozen = frozen


def last_kernel_stats() -> Dict[str, object]:
    """Iterations, classes (and, when traced, frozen flows per iteration)
    of the last progressive-filling run on this thread."""
    stats: Dict[str, object] = {
        "iterations": int(getattr(_kernel_stats, "iterations", 0)),
        "classes": int(getattr(_kernel_stats, "classes", 0)),
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

    def arc_counts(self, members: np.ndarray) -> np.ndarray:
        """Flows crossing each arc, given the active flows of each group
        (exact, as float64)."""
        counts: np.ndarray = self.arc_group @ members
        return counts

    def groups_touching(self, arc_mask: np.ndarray) -> np.ndarray:
        """Boolean per group: does the group cross any arc in *arc_mask*?"""
        hit: np.ndarray = self.group_arc @ arc_mask.astype(np.float64) > 0.0
        return hit


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a vector, ascending."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _collapse(
    flow_group: np.ndarray, demands: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (group, demand bit pattern) classes of a flow population.

    Demands are classed by their bits, so ``0.0`` / ``-0.0`` and NaN
    payloads never merge with a different value.  Returns the class of each
    flow, then per class its group, member count (float64, for weighted
    ``bincount``) and demand.  Two sorts and two binary searches: a sort
    without the permutation is the cheapest full pass NumPy offers here.
    """
    bits = demands.view(np.int64)
    values = _sorted_distinct(bits)
    key = flow_group * values.size + np.searchsorted(values, bits)
    keys = _sorted_distinct(key)
    class_of_flow = np.searchsorted(keys, key)
    return (
        class_of_flow,
        keys // values.size,
        np.bincount(class_of_flow).astype(np.float64),
        values[keys % values.size].view(np.float64),
    )


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
    if num_flows == 0:
        return np.zeros(0, dtype=float)
    demands = np.ascontiguousarray(demands, dtype=np.float64)
    if incidence.flow_group is None:
        # One flow per group: every flow is its own class of weight one.
        class_of_flow: Optional[np.ndarray] = None
        class_group = np.arange(num_flows)
        class_weight = np.ones(num_flows)
        pending = demands.copy()
    else:
        class_of_flow, class_group, class_weight, pending = _collapse(
            incidence.flow_group, demands
        )
    num_classes = int(pending.shape[0])
    num_groups = incidence.group_arc.shape[0]
    allocation = np.zeros(num_classes, dtype=float)
    capacity = np.array(arc_capacity, dtype=float)
    crossed_at_all = incidence.crossed_at_all
    # The unfrozen classes (ascending indices) and their flows per group —
    # kept current by subtracting what freezes, an exact integer update.
    live = np.arange(num_classes)
    members = np.bincount(class_group, weights=class_weight, minlength=num_groups)

    iterations = 0
    frozen_trace: Optional[List[int]] = [] if _trace.tracing_enabled() else None
    # Each iteration freezes at least one class or exhausts at least one arc,
    # so the filling terminates within classes + used-arcs iterations.
    for _ in range(num_classes + int(crossed_at_all.sum()) + 1):
        if live.size == 0:
            break
        iterations += 1
        counts = incidence.arc_counts(members)
        crossed = np.flatnonzero(counts > 0)
        share_limited = (
            float((capacity[crossed] / counts[crossed]).min())
            if crossed.size
            else float("inf")
        )
        demand_limited = float(pending[live].min())
        step = min(share_limited, demand_limited)
        if step == float("inf"):
            break
        step = max(step, 0.0)
        allocation[live] += step
        pending[live] -= step
        capacity -= step * counts
        # Freeze demand-satisfied classes and classes on exhausted arcs.
        keep = pending[live] > DEMAND_EPSILON
        exhausted = crossed_at_all & (capacity <= CAPACITY_EPSILON)
        if exhausted.any():
            keep &= ~incidence.groups_touching(exhausted)[class_group[live]]
        frozen = live[~keep]
        frozen_weight = class_weight[frozen]
        members -= np.bincount(
            class_group[frozen], weights=frozen_weight, minlength=num_groups
        )
        if frozen_trace is not None:
            # Member-weighted: the flows that froze, not the classes.
            frozen_trace.append(int(frozen_weight.sum()))
        # A zero step is fine as long as it froze somebody (e.g. a flow
        # whose demand is currently zero) — the filling continues for the
        # rest.  Only a zero step that freezes nobody means no progress.
        if step <= STEP_EPSILON and frozen.size == 0:
            break
        live = live[keep]
    _record_kernel_stats(iterations, num_classes, frozen_trace)
    return allocation if class_of_flow is None else allocation[class_of_flow]
