"""Max-min fair-share computation: one progressive-filling loop, one incidence.

The allocation follows the classic progressive-filling algorithm: all
unfrozen flows grow their rate at the same pace until one of them reaches its
demand or some arc runs out of capacity; the affected flows freeze and the
filling continues with the rest.  :func:`max_min_fair_rates` keeps its state
in NumPy vectors over an :class:`Incidence` — a CSR groups×arcs matrix plus
its transpose.

Flows are collapsed into **classes**, distinct (demand bit pattern, group)
pairs with a member count: 204 800 flows of four demand values over 1 280
paths fill as 5 120 classes.  Every live flow's rate is the same float sum
``0 + s1 + s2 ...`` and its unserved demand ``d - s1 - s2 ...``, so the state
is one fill level, one pending demand per distinct value (rounding is
monotone: the lowest value with a live class is the demand limit) and the
live flows per group and per arc — integer sums, exact in any order, cut by
what freezes.  An iteration costs the arc vector plus what froze, and the
rates are bit-identical to filling flow by flow.  Demands that are all
distinct still take one iteration per flow: clustered demand is the traffic
this engine serves at scale.

An :class:`Incidence` remembers its last collapse.  The next call reuses it
when the demands keep their equality pattern — every flow's demand bits
equal its class representative's, and the value runs still hold one value
each, strictly ascending as int64 bits — because the collapse is then
exactly what a new one would return; only the distinct values are re-read.

The dict-based seed algorithm is preserved verbatim in
:mod:`repro.simulator.reference` and serves as the property-test oracle; the
two implementations are step-for-step equivalent, including the freezing
thresholds and termination conditions.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..obs import metrics
from ..obs import trace as _trace

#: A flow freezes when its unserved demand drops below this (bps).
DEMAND_EPSILON = 1e-9
#: An arc is exhausted when its remaining capacity drops below this (bps).
CAPACITY_EPSILON = 1e-9
#: Progressive filling stops when an iteration makes no real progress.
STEP_EPSILON = 1e-12
#: The class collapse bins its (demand value, group) keys directly while the
#: key space is at most this many times the flow count, and sorts them beyond.
DENSE_KEYS_PER_FLOW = 4

#: Per-thread record of the most recent progressive-filling run, read by
#: the ``fairness.kernel`` spans in :mod:`repro.simulator.network` and
#: :mod:`repro.simulator.aggregate`; the frozen-per-iteration breakdown is
#: gathered only while tracing is enabled.
_kernel_stats = threading.local()

#: Class collapses by kind: ``full`` ran :func:`_collapse`, ``reused`` kept
#: the incidence's last one (registry-wide, like the flow-set cache's pair).
_COLLAPSES = metrics.counter(
    "repro_fairness_collapses_total", "Class collapses of the fairness loop"
)
_FULL_COLLAPSES = _COLLAPSES.labels(collapse="full")
_REUSED_COLLAPSES = _COLLAPSES.labels(collapse="reused")


def last_kernel_stats() -> Dict[str, object]:
    """Iterations, classes, whether the collapse was ``full`` or ``reused``
    (and, when traced, frozen flows per iteration) of the last
    progressive-filling run on this thread."""
    stats: Dict[str, object] = {
        "iterations": int(getattr(_kernel_stats, "iterations", 0)),
        "classes": int(getattr(_kernel_stats, "classes", 0)),
        "collapse": getattr(_kernel_stats, "collapse", None),
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
    per hop would.  The matrices and *flow_group* are fixed values: the
    incidence keeps its last class collapse next to them.

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
        indptr = np.zeros(len(arcs_of_group) + 1, dtype=np.int64)
        np.cumsum([arcs.size for arcs in arcs_of_group], dtype=np.int64, out=indptr[1:])
        indices = np.concatenate([np.zeros(0, dtype=np.int64), *arcs_of_group])
        self._assemble(indptr, indices, num_arcs, flow_group)

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_arcs: int,
        flow_group: Optional[np.ndarray] = None,
    ) -> "Incidence":
        """The incidence whose group *g* crosses ``indices[indptr[g]:indptr[g + 1]]``."""
        incidence = cls.__new__(cls)
        incidence._assemble(indptr, indices, num_arcs, flow_group)
        return incidence

    def _assemble(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_arcs: int,
        flow_group: Optional[np.ndarray],
    ) -> None:
        #: groups×arcs — row g holds the arcs group g crosses.
        self.group_arc = sparse.csr_matrix(
            (np.ones(indices.size), indices, indptr), shape=(indptr.size - 1, num_arcs)
        )
        #: arcs×groups — the transpose: row a holds the groups crossing arc a.
        self.arc_group = self.group_arc.T.tocsr()
        self.flow_group = flow_group
        #: The last collapse over this incidence; one immutable value, swapped whole.
        self.classes: Optional[_Classes] = None


class _Classes(NamedTuple):
    """One class collapse (see :func:`_collapse`), every array read-only,
    plus one representative flow per class."""

    class_of_flow: np.ndarray
    class_group: np.ndarray
    class_weight: np.ndarray
    value_start: np.ndarray
    representative: np.ndarray


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a vector, ascending."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _spans(indptr: np.ndarray, row_size: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions ``indptr[r]:indptr[r + 1]`` of every row *r*, concatenated."""
    lengths = row_size[rows]
    positions = (indptr[rows] + lengths - lengths.cumsum()).repeat(lengths)
    positions += np.arange(positions.size)
    return positions


def _collapse(
    flow_group: np.ndarray, demands: np.ndarray, num_groups: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (demand bit pattern, group) classes of a flow population,
    ordered by value, then group: the class of each flow, then per class its
    group and member count (float64), the first class of each distinct value
    (plus the end) and the distinct values.  Demands are classed by their
    bits, so ``0.0`` / ``-0.0`` never merge.  While the key space values ×
    groups is at most ``DENSE_KEYS_PER_FLOW`` times the flow count, one
    ``bincount`` ranks the keys in linear time; sparser keys (all-distinct
    demands over many groups) are sorted.  Both give the same classes.
    """
    bits = demands.view(np.int64)
    values = _sorted_distinct(bits)
    key = np.searchsorted(values, bits)
    key *= num_groups
    key += flow_group
    space = values.size * num_groups
    if space <= DENSE_KEYS_PER_FLOW * key.size:
        weight = np.bincount(key, minlength=space)
        class_of_flow = (np.cumsum(weight > 0) - 1)[key]
        keys = np.flatnonzero(weight)
        weight = weight[keys]
    else:
        keys = _sorted_distinct(key)
        class_of_flow = np.searchsorted(keys, key)
        weight = np.bincount(class_of_flow)
    value_start = np.searchsorted(keys, np.arange(values.size + 1) * num_groups)
    return class_of_flow, keys % num_groups, weight.astype(float), value_start, values.view(float)


def _classes(incidence: Incidence, demands: np.ndarray) -> Tuple[_Classes, np.ndarray]:
    """The classes of *demands* over *incidence* and their distinct values.

    The incidence's last collapse is reused when (i) every flow's demand
    bits equal its class representative's and (ii) each value run of it
    still holds one value, the runs' values strictly ascending as int64 —
    the order :func:`_collapse` sorts by.  Then no two classes merge and
    none splits, so the new collapse would have the same classes in the same
    order: only the values are re-read.  Otherwise the collapse runs again
    and is kept in place of the last one.
    """
    bits = demands.view(np.int64)
    kept = incidence.classes
    if kept is not None and kept.class_of_flow.size == bits.size:
        class_bits = bits[kept.representative]
        run_bits = class_bits[kept.value_start[:-1]]
        if (
            bool((run_bits[1:] > run_bits[:-1]).all())
            and np.array_equal(class_bits, run_bits.repeat(np.diff(kept.value_start)))
            and np.array_equal(class_bits[kept.class_of_flow], bits)
        ):
            _kernel_stats.collapse = "reused"
            _REUSED_COLLAPSES.inc()
            return kept, run_bits.view(float)
    flow_group = incidence.flow_group
    class_of_flow, class_group, class_weight, value_start, values = _collapse(
        np.arange(bits.size) if flow_group is None else flow_group,
        demands,
        incidence.group_arc.shape[0],
    )
    representative = np.empty(int(class_of_flow.max()) + 1, dtype=np.int64)
    representative[class_of_flow] = np.arange(class_of_flow.size)
    classes = _Classes(class_of_flow, class_group, class_weight, value_start, representative)
    for array in classes:
        array.flags.writeable = False
    incidence.classes = classes
    _kernel_stats.collapse = "full"
    _FULL_COLLAPSES.inc()
    return classes, values


def max_min_fair_rates(
    demands: np.ndarray, arc_capacity: np.ndarray, incidence: Incidence
) -> np.ndarray:
    """Max-min fair rates for routable flows over a shared arc table.

    Args:
        demands: Offered load per flow (bps), shape ``(num_flows,)``; no NaN.
        arc_capacity: Allocation capacity per arc (bps), full table length.
        incidence: The arcs each flow (or group of flows) crosses.

    Returns:
        The allocated rate per flow, aligned with *demands*.
    """
    num_flows = int(demands.shape[0])
    if num_flows == 0:
        return np.zeros(0, dtype=float)
    group_arc, arc_group = incidence.group_arc, incidence.arc_group
    num_groups = group_arc.shape[0]
    classes, values = _classes(incidence, np.ascontiguousarray(demands, dtype=np.float64))
    class_of_flow, class_group, class_weight, value_start, _ = classes
    arcs_per_group, groups_per_arc = np.diff(group_arc.indptr), np.diff(arc_group.indptr)
    members = np.bincount(class_group, weights=class_weight, minlength=num_groups)
    counts = arc_group @ members
    # A positive capacity over a zero count is a +inf share; an arc that no
    # live flow crosses from the start, or that has exhausted, holds +inf.
    capacity = np.where(counts == 0, np.inf, arc_capacity)
    pending, by_value = values.copy(), np.argsort(values, kind="stable")
    # The fill level at which each group (an arc of it exhausted) and each
    # value (its demand met) froze; a class froze at the lower of the two.
    group_fill, value_fill = np.full(num_groups, np.inf), np.full(values.size, np.inf)
    filled, live_flows, lowest, iterations = 0.0, num_flows, 0, 0
    frozen_trace: Optional[List[int]] = [] if _trace.tracing_enabled() else None

    def spent(value: int) -> bool:
        """Whether no live flow has this demand value."""
        return not members[class_group[value_start[value] : value_start[value + 1]]].any()

    def release(groups: np.ndarray, weights: np.ndarray) -> int:
        """Take *weights* live flows of each of *groups* off their arcs."""
        arcs = group_arc.indices[_spans(group_arc.indptr, arcs_per_group, groups)]
        np.subtract.at(counts, arcs, weights.repeat(arcs_per_group[groups]))
        members[groups] -= weights
        return int(weights.sum())

    # Each iteration freezes at least one class or exhausts at least one arc,
    # so the filling terminates within classes + used-arcs iterations.
    with np.errstate(divide="ignore"):
        for _ in range(class_group.size + int(np.count_nonzero(counts)) + 1):
            if live_flows == 0:
                break
            iterations += 1
            share_limited = float(np.minimum.reduce(capacity / counts, initial=np.inf))
            # The lowest value's demand may bind only if it has live flows.
            while pending[by_value[lowest]] < share_limited and spent(by_value[lowest]):
                lowest += 1
            step = min(share_limited, float(pending[by_value[lowest]]))
            if step == float("inf"):
                break
            step = max(step, 0.0)
            filled += step
            pending -= step
            capacity -= step * counts
            # Freeze the groups on exhausted arcs, then the values met.
            frozen = 0
            exhausted = (capacity <= CAPACITY_EPSILON).nonzero()[0]
            if exhausted.size:
                capacity[exhausted] = np.inf
                groups = _sorted_distinct(
                    arc_group.indices[_spans(arc_group.indptr, groups_per_arc, exhausted)]
                )
                groups = groups[members[groups] > 0]
                group_fill[groups] = filled
                frozen += release(groups, members[groups])
            while lowest < values.size and pending[by_value[lowest]] <= DEMAND_EPSILON:
                value_fill[by_value[lowest]] = filled
                span = slice(value_start[by_value[lowest]], value_start[by_value[lowest] + 1])
                unfrozen = members[class_group[span]] > 0
                frozen += release(class_group[span][unfrozen], class_weight[span][unfrozen])
                lowest += 1
            live_flows -= frozen
            if frozen_trace is not None:
                # Member-weighted: the flows that froze, not the classes.
                frozen_trace.append(frozen)
            # A zero step that froze somebody (a flow whose demand is zero)
            # is progress; only one that freezes nobody ends the filling.
            if step <= STEP_EPSILON and frozen == 0:
                break
    _kernel_stats.iterations, _kernel_stats.classes = iterations, class_group.size
    _kernel_stats.frozen = frozen_trace
    fill = np.minimum(value_fill.repeat(np.diff(value_start)), group_fill[class_group])
    return np.minimum(fill, filled)[class_of_flow]
