"""Splittable multi-commodity-flow (MCF) feasibility and routing.

The paper's model is "based on the standard multi-commodity flow
formulation"; without the energy on/off variables the problem is a
polynomial-time LP.  This module solves that LP — it answers "can this set of
active elements carry this traffic matrix?", which the framework needs in
several places:

* calibrating the 100 % utilisation level of a topology (Section 5.1),
* checking that the always-on paths alone can carry a given load,
* the recomputation-rate analysis of Figure 1b.

Commodities are aggregated per origin (the standard reduction), so the LP has
``|arcs| * |origins|`` variables rather than ``|arcs| * |pairs|``.

:class:`ConcurrentFlow` asks the optimisation form of the same question
("how many times this matrix fits") over the same constraint rows, and then
answers feasibility at any multiple of the matrix on that one model.

Three layers, one above the other: :func:`_flow_lp` assembles the constraint
structure over the topology's index, :class:`~repro.routing.highs.HighsModel`
is the solver binding (the model is passed once, bounds change in place and a
re-solve starts from the basis the last one left), and :class:`FlowSession`
is what callers hold: "the flow LP of this topology object — route these
demands with these arcs (index masks) switched off".  :func:`solve_mcf` is
a session of one solve; the subset search of :mod:`repro.optim.subset`
keeps one for a switch-off loop, a solver-replay runtime from one interval
to the next (:meth:`FlowSession.retarget`), and asks it first whether a node cut of its pool (:class:`_CutPool`) already
proves a switch-off infeasible, or whether a flow packed onto paths
(:meth:`FlowSession.seed`) or moved onto detours
(:meth:`FlowSession.repair`) already proves it feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from scipy import sparse

from ..exceptions import SolverError
from ..obs import metrics
from ..topology.base import Topology
from ..topology.index import TopologyIndex
from ..traffic.matrix import TrafficMatrix
from .highs import LINPROG_OPTIONS, PRIMAL_FEASIBILITY_TOLERANCE, HighsModel

_LP_SOLVES = metrics.counter(
    "repro_mcf_lp_solves_total", "HiGHS LP solves of the MCF module, by kind of LP"
)
_FEASIBILITY_SOLVES = _LP_SOLVES.labels(kind="feasibility")
_MAX_CONCURRENT_SOLVES = _LP_SOLVES.labels(kind="max_concurrent")


def pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Fixed-order pairwise summation along the last axis.

    ``np.sum`` on some platforms picks its accumulation tree from the
    buffer's memory alignment, so two interpreter invocations can differ in
    the last ULP on the same data.  This reduction instead halves the axis
    with element-wise adds — ``a[0::2] + a[1::2]`` repeatedly, carrying a
    trailing odd element verbatim — so the evaluation tree depends only on
    the length, never on where the allocator placed the buffer.
    """
    array = np.asarray(values, dtype=float)
    if array.shape[-1] == 0:
        return np.zeros(array.shape[:-1], dtype=float)
    while array.shape[-1] > 1:
        length = array.shape[-1]
        paired = array[..., 0 : length - (length % 2) : 2] + array[..., 1::2]
        if length % 2:
            paired = np.concatenate([paired, array[..., -1:]], axis=-1)
        array = paired
    return array[..., 0]


@dataclass(frozen=True, eq=False)
class MCFResult:
    """Outcome of a multi-commodity-flow computation.

    Attributes:
        feasible: Whether the demand fits within the capacities.
        max_utilisation: Largest arc utilisation of the computed flow
            (``inf`` when infeasible).
        arc_loads: Load in bits per second of every directed arc of the
            topology's index, in index order — zero on an arc that is
            switched off (empty when infeasible).
        total_flow_bps: Sum of arc loads (a hop-weighted volume; ``0.0`` when
            infeasible).
    """

    feasible: bool
    max_utilisation: float
    arc_loads: np.ndarray
    total_flow_bps: float


@dataclass
class _FlowLP:
    """The origin-aggregated flow LP of one (topology index, demand set).

    Variable ``o * num_arcs + a`` is the flow of origin ``origins[o]`` on arc
    ``a``; ``a_eq`` is flow conservation per (origin, node) and ``a_ub`` the
    total flow per arc.  ``eq_rhs`` (what *positive* emits and absorbs) is in
    units of ``scale``, the largest arc capacity: in bits per second demands
    reach 1e8-1e10, far from the solver's absolute feasibility tolerances.
    """

    positive: "Demands"
    origins: List[str]
    a_eq: sparse.coo_matrix
    a_ub: sparse.coo_matrix
    eq_rhs: np.ndarray
    capacities_bps: np.ndarray
    scale: float

    def capacity_rhs(self, utilisation_limit: float) -> np.ndarray:
        return self.capacities_bps * utilisation_limit / self.scale


Demands = List[Tuple[Tuple[str, str], float]]


def _positive_demands(demands: TrafficMatrix) -> Demands:
    return [(pair, demand) for pair, demand in demands.items() if demand > 0.0]


def flow_structure(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, num_commodities: int
) -> Tuple[sparse.coo_matrix, sparse.coo_matrix]:
    """``(A_eq, A_ub)`` for the arcs ``src[a] -> dst[a]``, one copy per
    commodity (an origin of the flow LPs, a pair of the arc MILP).

    ``A_eq`` is a node-arc incidence block per commodity (+1 in the row of
    the arc's source, -1 in the row of its destination) and ``A_ub`` an
    identity block per commodity, side by side.  Neither depends on the
    demands: the feasibility LP, the max-concurrent-flow LP and the arc MILP
    of :mod:`repro.optim.model` differ only in what they put beside them.
    """
    num_arcs = len(src)
    num_vars = num_arcs * num_commodities
    columns = np.arange(num_vars)
    arc_of = columns % num_arcs
    first_row = (columns // num_arcs) * num_nodes
    ones = np.ones(num_vars)
    a_eq = sparse.coo_matrix(
        (
            np.concatenate((ones, -ones)),
            (
                np.concatenate((first_row + src[arc_of], first_row + dst[arc_of])),
                np.concatenate((columns, columns)),
            ),
        ),
        shape=(num_nodes * num_commodities, num_vars),
    )
    a_ub = sparse.coo_matrix((ones, (arc_of, columns)), shape=(num_arcs, num_vars))
    return a_eq, a_ub


Endpoints = Optional[List[Tuple[int, int]]]


def _endpoints(index: TopologyIndex, positive: Demands) -> Endpoints:
    """The node indices of every pair of *positive*; ``None`` when some
    endpoint is not in the topology."""
    node_index = index.node_index
    try:
        return [(node_index[origin], node_index[dst]) for (origin, dst), _ in positive]
    except KeyError:
        return None


def _joined(index: TopologyIndex, arc_on: np.ndarray, endpoints: Endpoints) -> bool:
    """Whether every pair of *endpoints* is in the topology and has a path
    over the arcs that are on.  Tiny demands (the paper's 1 bit/s ε flows)
    can fall below the LP solver's tolerances once the problem is rescaled,
    so disconnection is detected combinatorially, not numerically.
    """
    if endpoints is None:
        return False
    labels = index.component_labels(arc_on)
    return all(labels[origin] == labels[dst] for origin, dst in endpoints)


def _conservation_rhs(
    index: TopologyIndex, origins: List[str], positive: Demands, scale: float
) -> np.ndarray:
    """Conservation right-hand side, one row per (origin, node): an origin
    emits what its sinks absorb."""
    node_index = index.node_index
    demand_from: Dict[str, Dict[str, float]] = {origin: {} for origin in origins}
    for (origin, destination), demand in positive:
        demand_from[origin][destination] = (
            demand_from[origin].get(destination, 0.0) + demand / scale
        )
    eq_rhs = np.zeros((len(origins), len(node_index)))
    for row, origin in enumerate(origins):
        for destination, volume in demand_from[origin].items():
            eq_rhs[row, node_index[destination]] = volume
    np.negative(eq_rhs, out=eq_rhs)
    for row, origin in enumerate(origins):
        sinks = demand_from[origin]
        eq_rhs[row, node_index[origin]] = sum(sinks.values()) - sinks.get(origin, 0.0)
    return eq_rhs.ravel()


def _flow_lp(index: TopologyIndex, positive: Demands) -> _FlowLP:
    """Assemble the LP that routes *positive* over every arc of *index* (at
    least one).  What can be decided without a solver — no usable arc at
    all, a demand that is not :func:`_joined` — the caller decides first.
    """
    scale = float(index.arc_capacity.max())
    origins = sorted({origin for (origin, _), _ in positive})
    a_eq, a_ub = flow_structure(
        index.arc_src, index.arc_dst, len(index.node_names), len(origins)
    )
    eq_rhs = _conservation_rhs(index, origins, positive, scale)
    return _FlowLP(positive, origins, a_eq, a_ub, eq_rhs, index.arc_capacity, scale)


def _arc_loads(lp: _FlowLP, solution: np.ndarray) -> np.ndarray:
    """Per-arc loads (bps, index order) of the LP's ``x``, summed origin by
    origin, in order: the per-arc sums must not depend on a reduction tree
    (see :func:`pairwise_sum`)."""
    loads = np.zeros(len(lp.capacities_bps))
    for origin_flows in solution.reshape(len(lp.origins), len(loads)):
        loads += origin_flows
    return loads * lp.scale


def _lp_model(
    cost: np.ndarray,
    a_ub: sparse.spmatrix,
    b_ub: np.ndarray,
    a_eq: sparse.spmatrix,
    b_eq: np.ndarray,
) -> HighsModel:
    """``min cost @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x == b_eq``,
    ``x >= 0`` — inequality rows above equality rows, as SciPy's LP front end
    (the reference in ``tests/test_mcf_session.py``) stacks them."""
    return HighsModel(
        cost,
        sparse.csc_array(sparse.vstack((a_ub, a_eq))),
        np.concatenate((np.full(len(b_ub), -np.inf), b_eq)),
        np.concatenate((b_ub, b_eq)),
        np.zeros(len(cost)),
        np.full(len(cost), np.inf),
        LINPROG_OPTIONS,
    )


#: Headroom on a cut's margin and on the slack a seed or repair keeps: the
#: bounds of :class:`_CutPool` and :meth:`FlowSession.repair` assume every
#: residual of an optimal solution within HiGHS's tolerance, and HiGHS checks
#: that on a scaled copy of the LP.  Ten times the bound costs only the cases
#: closer than the margin, which the LP then decides.
_RESIDUAL_ALLOWANCE = 10.0


class _CutPool:
    """Node sets ``S`` that can prove a demand does not fit, without a solver.

    Every flow of an origin in ``S`` to a destination outside it leaves ``S``
    over the arcs out of ``S``; when that *crossing demand* exceeds the
    arcs' capacity the LP is infeasible.  The sets are those the dual rays
    of infeasible LPs point at (:meth:`learn`).  A set is a boolean row over
    the index's nodes, kept beside its crossing-arc row; :meth:`retarget`
    gives every set its crossing demand under new demands, and
    :meth:`violated` is two small mat-vecs against a capacity vector.

    A refusal must never contradict the LP, whose solution may miss each row
    and column bound by HiGHS's tolerance ``δ`` (in units of ``scale``, the
    largest arc capacity).  The bound: for each origin in ``S``, add up its
    conservation rows over the nodes of ``S``; the flow it sends out of
    ``S`` is at least its crossing demand, less ``δ`` per row (``|S|``) and
    per column on an arc into ``S`` (``|in(S)|``, each ``>= -δ``).  Across
    all origins, an arc out of ``S`` carries at most its capacity plus
    ``δ`` for its row and ``δ`` per origin (the columns of origins outside
    ``S``, each ``>= -δ``; or every column ``<= δ`` when the arc is off).
    So with ``k`` origins a set refuses only when its crossing demand
    exceeds the active capacity out of it by more than
    ``δ * scale * (k * (|S| + |in(S)|) + (k + 1) * |out(S)|)``, times
    :data:`_RESIDUAL_ALLOWANCE`: its *margin*.  Float error in the two sums
    is orders of magnitude below that.  A case within the margin — an ε
    flow always is — goes to the LP.
    """

    def __init__(self, index: TopologyIndex, unit: float) -> None:
        self._index = index
        #: ``δ * scale`` times the allowance, per row or column of the bound.
        self._unit = unit
        self.sets = np.zeros((0, len(index.node_names)), dtype=bool)
        self._known: Set[bytes] = set()
        #: Per set, what does not depend on the demands: its crossing-arc
        #: row, ``|S| + |in(S)|`` and ``|out(S)|``.
        self._arcs_out = np.zeros((0, index.num_arcs))
        self._inbound = self._outbound = np.zeros(0, dtype=np.int64)
        #: Origin and destination node of every pair with demand, its volume
        #: (bps), the number of origins; each set's crossing demand and margin.
        self._pairs = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
        self._num_origins = 0
        self._demand = self._margin = np.zeros(0)

    def _structure(self, sets: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(crossing-arc rows, |S| + |in(S)|, |out(S)|)`` of *sets*."""
        inside_src, inside_dst = sets[:, self._index.arc_src], sets[:, self._index.arc_dst]
        arcs_out = inside_src & ~inside_dst
        arcs_in = inside_dst & ~inside_src
        inbound = np.count_nonzero(sets, axis=1) + np.count_nonzero(arcs_in, axis=1)
        return arcs_out.astype(float), inbound, np.count_nonzero(arcs_out, axis=1)

    def _measure(
        self, sets: np.ndarray, inbound: np.ndarray, outbound: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(crossing demand, margin)`` of *sets* under the demands as they are now."""
        origins, destinations, volumes = self._pairs
        demand = (sets[:, origins] & ~sets[:, destinations]).astype(float) @ volumes
        k = self._num_origins
        return demand, self._unit * (k * inbound + (k + 1) * outbound)

    def _add(self, sets: np.ndarray, structure: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self.sets = np.vstack((self.sets, sets))
        self._known.update(row.tobytes() for row in sets)
        arcs_out, inbound, outbound = structure
        self._arcs_out = np.vstack((self._arcs_out, arcs_out))
        self._inbound = np.concatenate((self._inbound, inbound))
        self._outbound = np.concatenate((self._outbound, outbound))

    def retarget(self, positive: "Demands", endpoints: List[Tuple[int, int]]) -> None:
        """Measure every set under *positive*."""
        origins = np.array([origin for origin, _ in endpoints], dtype=np.int64)
        destinations = np.array([destination for _, destination in endpoints], dtype=np.int64)
        self._pairs = (origins, destinations, np.array([demand for _, demand in positive]))
        self._num_origins = len(np.unique(origins))
        self._demand, self._margin = self._measure(self.sets, self._inbound, self._outbound)

    def violated(self, capacity_on: np.ndarray) -> bool:
        """Whether some set's crossing demand exceeds the capacity
        *capacity_on* (bps per arc) out of it by more than its margin."""
        return bool(_exceeds(self._demand, self._margin, self._arcs_out, capacity_on).any())

    def learn(self, sets: np.ndarray, capacity_on: np.ndarray) -> bool:
        """Add the first of *sets* that is violated at *capacity_on*, unless
        the pool has it; whether one was added."""
        structure = self._structure(sets)
        demand, margin = self._measure(sets, *structure[1:])
        violated = np.flatnonzero(_exceeds(demand, margin, structure[0], capacity_on))
        if not len(violated) or sets[violated[0]].tobytes() in self._known:
            return False
        first = violated[:1]
        self._add(sets[first], tuple(part[first] for part in structure))
        self._demand = np.concatenate((self._demand, demand[first]))
        self._margin = np.concatenate((self._margin, margin[first]))
        return True


def _exceeds(
    demand: np.ndarray, margin: np.ndarray, arcs_out: np.ndarray, capacity_on: np.ndarray
) -> np.ndarray:
    # The mat-vec's float sums need no fixed order: a last-ulp move can only
    # trade a refusal at the very edge of the margin for an LP, which is
    # still far past its tolerance and answers "infeasible" too.
    return demand > arcs_out @ capacity_on + margin


class FlowSession:
    """The flow LP of one topology object at one utilisation limit, solved
    for any demands with any of its arcs switched off.

    ``session.solve(node_on, link_on)`` answers what a fresh session's first
    solve on the same demands and active sets answers: the same solver-free
    early returns, the same ``feasible`` — ``False`` both when the LP is
    infeasible and when some demand endpoint is outside the active set.  The
    LP spans every arc of the topology's index, so a wider call may follow a
    narrow one; it reaches HiGHS at the first solve that needs the solver,
    and from then on a solve is "the columns of the arcs that changed get
    upper bound 0, or ``inf`` again" and a run from the previous basis.
    After :meth:`retarget` the model stays if the origins do (conservation
    right-hand sides move) and is rebuilt otherwise.  A later solve need not
    land on the vertex a fresh LP would: ``feasible`` is the same, the flow
    *an* optimal one.  A session has one holder — a subset search, or one
    solver runtime's replay state for its run — and never crosses threads.

    A subset search asks :meth:`seed` once on its starting arcs, then per
    candidate :meth:`connected`, :meth:`cut_refuses`, :meth:`repair` and
    :meth:`witness` instead, in that order, on the arc mask it computed
    once; :meth:`seed`, :meth:`repair` and :meth:`witness` return a flow as
    an origins x arcs matrix in bps.  :meth:`seed` and :meth:`repair` find
    one without a solver — every demand packed onto a fewest-hop path, or
    a witness's flow moved off the arcs a candidate switched off onto
    fewest-hop detours — and keep a margin of slack on every arc they load
    (see :meth:`repair`).  :meth:`cut_refuses` answers "infeasible" from a
    pool of node cuts (:class:`_CutPool`): each time :meth:`witness` gets
    "infeasible" from the LP, the pool learns the cut the LP's dual ray
    points at.  The pool starts empty, lives as long as the session — one
    topology object, one holder — and only grows; each :meth:`retarget`
    measures it under the new demands, so a cut learned in one interval
    refuses the same question in a later one.
    """

    def __init__(
        self, topology: Topology, demands: TrafficMatrix, utilisation_limit: float = 1.0
    ) -> None:
        self._topology = topology
        self.index = topology.index()
        self._utilisation_limit = utilisation_limit
        #: Capacity (bps) of every arc at the session's utilisation limit.
        self._capacity = self.index.arc_capacity * utilisation_limit
        #: ``δ * scale`` times the allowance: the unit of the cuts' margins
        #: and of the slack :meth:`seed` and :meth:`repair` keep.
        scale = float(self.index.arc_capacity.max(initial=0.0))
        self._unit = _RESIDUAL_ALLOWANCE * PRIMAL_FEASIBILITY_TOLERANCE * scale
        self._cuts = _CutPool(self.index, self._unit)
        self.retarget(demands)
        #: Assembled and passed to HiGHS at the first solve that needs the solver.
        self._model: Optional[Tuple[_FlowLP, HighsModel]] = None
        self._columns_on = np.ones(self.index.num_arcs, dtype=bool)
        #: Models built, simplex iterations of every solve so far and cuts
        #: learned from dual rays.
        self.models_built = 0
        self.simplex_iterations = 0
        self.cuts_learned = 0

    @property
    def topology(self) -> Topology:
        """The topology object the session's LP routes over."""
        return self._topology

    @property
    def utilisation_limit(self) -> float:
        """The share of every arc's capacity the session's LP may use."""
        return self._utilisation_limit

    def retarget(self, demands: TrafficMatrix) -> None:
        """Make *demands* the ones every later :meth:`solve` routes."""
        self._positive = _positive_demands(demands)
        self._endpoints = _endpoints(self.index, self._positive)
        #: The origins in the LP's order (the rows of a witness), each
        #: pair's row, and the slack :meth:`repair` keeps for that many.
        self._origins = sorted({origin for (origin, _), _ in self._positive})
        row_of = {origin: row for row, origin in enumerate(self._origins)}
        self._rows = [row_of[origin] for (origin, _), _ in self._positive]
        self._margin = self._unit * (len(self._origins) + 2)
        if self._endpoints is not None:
            self._cuts.retarget(self._positive, self._endpoints)

    def _current_model(self) -> Tuple[_FlowLP, HighsModel]:
        """The model held, moved to the demands as they are now, or a new one."""
        model = self._model
        if model is not None and model[0].positive is not self._positive:
            lp, solver = model
            if {origin for (origin, _), _ in self._positive} == set(lp.origins):
                eq_rhs = _conservation_rhs(self.index, lp.origins, self._positive, lp.scale)
                moved = np.flatnonzero(eq_rhs != lp.eq_rhs)
                solver.set_equality(self.index.num_arcs + moved, eq_rhs[moved])
                lp.positive, lp.eq_rhs = self._positive, eq_rhs
            else:
                model = None  # other rows and columns
        if model is None:
            lp = _flow_lp(self.index, self._positive)
            # Objective: minimise total flow (discourages cycles and long detours).
            cost = np.ones(lp.a_ub.shape[1])
            rhs = lp.capacity_rhs(self._utilisation_limit)
            model = self._model = (lp, _lp_model(cost, lp.a_ub, rhs, lp.a_eq, lp.eq_rhs))
            self._columns_on = np.ones(self.index.num_arcs, dtype=bool)
            self.models_built += 1
        return model

    def _run(self, arc_on: np.ndarray) -> Tuple[_FlowLP, HighsModel, Optional[np.ndarray]]:
        """The LP, its model and its optimal ``x`` over the arcs *arc_on*
        (``None`` when it is infeasible)."""
        lp, solver = self._current_model()
        flipped = np.flatnonzero(arc_on != self._columns_on)
        if len(flipped):
            # Arc ``a`` is column ``o * num_arcs + a`` of every origin ``o``.
            num_origins = len(lp.origins)
            columns = np.add.outer(np.arange(num_origins) * self.index.num_arcs, flipped).ravel()
            upper = np.tile(np.where(arc_on[flipped], np.inf, 0.0), num_origins)
            solver.set_bounds(columns, np.zeros(len(columns)), upper)
            self._columns_on = arc_on

        _FEASIBILITY_SOLVES.inc()
        iterations_before = solver.iterations
        solution = solver.solve()
        self.simplex_iterations += solver.iterations - iterations_before
        return lp, solver, solution

    def connected(self, arc_on: np.ndarray) -> bool:
        """Whether every demand has both endpoints in the topology and a
        path over the arcs *arc_on*: ``False`` means they cannot carry the
        demands at any capacity."""
        return _joined(self.index, arc_on, self._endpoints)

    def cut_refuses(self, arc_on: np.ndarray) -> bool:
        """Whether a cut of the pool proves that the arcs *arc_on* cannot
        carry the demands; ``False`` leaves the question to the LP."""
        # Demands with an endpoint outside the topology are never connected.
        return self._endpoints is not None and self._cuts.violated(self._capacity * arc_on)

    def witness(self, arc_on: np.ndarray) -> Optional[np.ndarray]:
        """The flows of an optimal flow of the demands over the arcs
        *arc_on* — an origins x arcs matrix, in bps, rows in ``lp.origins``
        order, zero on an arc that is off — or ``None`` when there is none,
        and then the pool learns the cut the LP's dual ray points at, if it
        has one.  For arcs that are :meth:`connected`."""
        if not self._positive:
            return np.zeros((0, self.index.num_arcs))
        lp, solver, solution = self._run(arc_on)
        if solution is None:
            self._learn(lp, solver.dual_ray(), arc_on)
            return None
        # No flow at all on an arc that is off (a warm re-solve may leave its
        # columns within the solver's tolerance of their bound).
        flows = solution.reshape(len(lp.origins), self.index.num_arcs) * lp.scale
        return np.where(arc_on, flows, 0.0)

    def seed(self, arc_on: np.ndarray) -> Optional[np.ndarray]:
        """A flow of the demands over the arcs *arc_on*, as :meth:`witness`
        gives one, found without a solver: every demand, largest first, on a
        fewest-hop path whose arcs keep the :meth:`repair` margin of slack
        after it.  ``None`` when some demand finds no such path."""
        if self._endpoints is None:
            return None
        flows = np.zeros((len(self._origins), self.index.num_arcs))
        residual = np.where(arc_on, self._capacity, -np.inf).tolist()
        order = sorted(range(len(self._positive)), key=lambda pair: -self._positive[pair][1])
        for pair in order:
            demand = self._positive[pair][1]
            path = self._detour(*self._endpoints[pair], residual, demand + self._margin)
            if path is None:
                return None
            flows[self._rows[pair], path] += demand
            for arc in path:
                residual[arc] -= demand
        return flows

    def repair(
        self, flows: np.ndarray, arc_on: np.ndarray, arcs: np.ndarray, node: Optional[int]
    ) -> Optional[np.ndarray]:
        """*flows* — a witness over the arcs *arc_on* plus *arcs* — with the
        flow on *arcs* moved onto detours over *arc_on*, or ``None`` when some
        of it finds none.  *arcs* are what a candidate switched off: a link's
        two arcs (*node* ``None``), or every arc of the node *node*.

        Off a link, each origin's flow on each arc ``u -> v`` takes one
        fewest-hop ``u -> v`` path.  Off a node, each origin's flow into it
        is paired with its flow out, in arc order, and each in -> out
        segment takes a path around it: pairing the summed loads would hand
        one origin's inflow to another's outflow.  Amounts go largest first,
        each onto arcs with ``amount + margin`` of slack, the margin being
        ``(k + 2) * δ * scale`` times :data:`_RESIDUAL_ALLOWANCE` for ``k``
        origins, HiGHS's primal tolerance ``δ`` and the LP's ``scale``.

        Why the LP accepts the result: a move takes an amount off one arc
        and puts it on every arc of a path between the same two nodes, so
        every conservation row keeps the residual the LP's point left it —
        save, off a node, an origin's in/out mismatch there, the LP's own
        residual in that row, which moves to the row of a neighbour; more
        than the allowance times ``δ * scale`` goes to the LP instead.
        Columns only grow from what the LP returned, or become exact zeros
        on arcs that are off.  Arcs the repair does not touch keep the LP's
        point, which the witness rule trusts already.  An arc it does touch
        ends at least the margin under its capacity: room for a flow that
        meets every conservation row exactly to differ from this one by
        ``δ`` per origin's rows, ``δ`` for the capacity row itself and ``δ``
        for the float error of the sums.  :meth:`seed` builds its flow path
        by path, conservation exact, under the same margin.
        """
        index = self.index
        flows = flows.copy()
        loads = np.zeros(index.num_arcs)
        for origin_flows in flows:
            loads += origin_flows
        residual = np.where(arc_on, self._capacity - loads, -np.inf).tolist()
        #: ``(amount, row, from node, to node)`` of every piece of flow to move.
        segments: List[Tuple[float, int, int, int]] = []
        if node is None:
            for arc in arcs.tolist():
                source, target = int(index.arc_src[arc]), int(index.arc_dst[arc])
                for row in np.flatnonzero(flows[:, arc] > 0.0).tolist():
                    segments.append((float(flows[row, arc]), row, source, target))
        else:
            in_arcs, out_arcs = index.in_adjacency[node], index.out_adjacency[node]
            for row, origin_flows in enumerate(flows.tolist()):
                paired, unmatched = _paired(
                    [(origin_flows[arc], at) for arc, at in in_arcs if origin_flows[arc] > 0.0],
                    [(origin_flows[arc], at) for arc, at in out_arcs if origin_flows[arc] > 0.0],
                )
                if unmatched > self._unit:
                    return None
                segments += [(amount, row, source, target) for amount, source, target in paired]
        flows[:, arcs] = 0.0
        for amount, row, source, target in sorted(segments, key=lambda segment: -segment[0]):
            path = self._detour(source, target, residual, amount + self._margin)
            if path is None:
                return None
            flows[row, path] += amount
            for arc in path:
                residual[arc] -= amount
        return flows

    def _detour(
        self, source: int, target: int, residual: List[float], need: float
    ) -> Optional[List[int]]:
        """The arcs of a fewest-hop path from node *source* to node *target*
        over the arcs whose *residual* is at least *need* (out-adjacency
        order breaks ties; none for a path of no hops), or ``None`` when
        there is none."""
        if source == target:
            return []
        adjacency = self.index.out_adjacency
        parent_arc: List[int] = [-1] * len(adjacency)
        parent_arc[source] = -2
        frontier = [source]
        while frontier:
            reached: List[int] = []
            for node in frontier:
                for arc, neighbour in adjacency[node]:
                    if parent_arc[neighbour] == -1 and residual[arc] >= need:
                        parent_arc[neighbour] = arc
                        if neighbour == target:
                            path = []
                            while neighbour != source:
                                arc = parent_arc[neighbour]
                                path.append(arc)
                                neighbour = int(self.index.arc_src[arc])
                            return path[::-1]
                        reached.append(neighbour)
            frontier = reached
        return None

    def _learn(self, lp: _FlowLP, ray: Optional[np.ndarray], arc_on: np.ndarray) -> None:
        """Offer the pool, per origin, the nodes whose conservation
        multipliers in the infeasible LP's dual *ray* lie on the origin's
        side of the midpoint of that origin's multipliers."""
        if ray is None:
            return
        index = self.index
        # Conservation row ``num_arcs + o * num_nodes + v`` is (origin o, node v).
        multipliers = ray[index.num_arcs :].reshape(len(lp.origins), len(index.node_names))
        middle = (multipliers.max(axis=1) + multipliers.min(axis=1)) / 2
        own = multipliers[np.arange(len(lp.origins)), [index.node_index[o] for o in lp.origins]]
        above = multipliers > middle[:, None]
        sets = np.where((own > middle)[:, None], above, multipliers < middle[:, None])
        sets = sets[own != middle]
        if len(sets) and self._cuts.learn(sets, self._capacity * arc_on):
            self.cuts_learned += 1

    def solve(
        self, node_on: Optional[np.ndarray] = None, link_on: Optional[np.ndarray] = None
    ) -> MCFResult:
        """Route the demands over the arcs of the active subset *node_on*,
        *link_on* (default: every node, every link)."""
        index = self.index
        arc_on = index.arc_mask(
            index.node_mask(None) if node_on is None else node_on,
            index.link_mask(None) if link_on is None else link_on,
        )
        if not self._positive:
            return MCFResult(True, 0.0, np.zeros(index.num_arcs), 0.0)
        infeasible = MCFResult(False, float("inf"), np.zeros(0), 0.0)
        if not self.connected(arc_on):
            return infeasible
        lp, _, solution = self._run(arc_on)
        if solution is None:
            return infeasible
        loads = _arc_loads(lp, solution)
        total_flow_bps = float(pairwise_sum(solution)) * lp.scale
        arc_loads = np.where(arc_on, loads, 0.0)
        return MCFResult(True, index.max_utilisation(loads), arc_loads, total_flow_bps)


def _paired(
    inflow: List[Tuple[float, int]], outflow: List[Tuple[float, int]]
) -> Tuple[List[Tuple[float, int, int]], float]:
    """One origin's ``(amount, node)`` flows into a node matched with its
    flows out of it, both in arc order: the ``(amount, from node, to node)``
    segments, and the amount left unmatched."""
    rest_in = [amount for amount, _ in inflow]
    rest_out = [amount for amount, _ in outflow]
    segments: List[Tuple[float, int, int]] = []
    into = out = 0
    while into < len(inflow) and out < len(outflow):
        amount = min(rest_in[into], rest_out[out])
        segments.append((amount, inflow[into][1], outflow[out][1]))
        rest_in[into] -= amount
        rest_out[out] -= amount
        into += rest_in[into] <= 0.0
        out += rest_out[out] <= 0.0
    return segments, sum(rest_in[into:]) + sum(rest_out[out:])


def solve_mcf(topology: Topology, demands: TrafficMatrix) -> MCFResult:
    """Solve the splittable MCF feasibility LP on the whole topology, every
    arc usable up to its capacity: a fresh :class:`FlowSession`'s first solve
    (open one to restrict the sets or the utilisation)."""
    return FlowSession(topology, demands).solve()


#: Relative distance from ``λ*`` within which :meth:`ConcurrentFlow.feasible_at`
#: asks a fresh :func:`is_demand_feasible` instead of the pinned model.  Only
#: there, within the solver's tolerances of the boundary, can the two LPs
#: disagree; the widest disagreement seen is 1e-7.
PINNED_PROBE_BAND = 1e-4


class ConcurrentFlow:
    """The max-concurrent-flow LP of one topology object and one demand set:
    maximise ``λ`` subject to the capacity rows of :func:`solve_mcf` and
    conservation ``A_eq f - λ d = 0``.

    :meth:`max_scale` solves it once for ``λ*``.  :meth:`feasible_at` asks
    the same model whether ``demands.scaled(scale)`` fits: with the column
    ``λ`` fixed to ``scale`` the constraints are those of
    :func:`is_demand_feasible` at that volume, so a probe is one bound change
    and a dual-simplex re-solve from the basis the last solve left.  Within
    :data:`PINNED_PROBE_BAND` of ``λ*`` a pinned probe and a fresh LP may
    fall on either side of the boundary; a probe there is answered by a fresh
    :func:`is_demand_feasible`, the very LP a caller without this object
    would solve.  A flow has one holder and never crosses threads.
    """

    def __init__(self, topology: Topology, demands: TrafficMatrix) -> None:
        self._topology = topology
        self._demands = demands
        self._positive = _positive_demands(demands)
        index = topology.index()
        self._routable = bool(index.num_arcs) and _joined(
            index, np.ones(index.num_arcs, dtype=bool), _endpoints(index, self._positive)
        )
        #: ``(model, [column of λ], λ*)``, built and solved at the first call
        #: that needs them.
        self._solved: Optional[Tuple[HighsModel, np.ndarray, float]] = None
        #: Simplex iterations of the pinned probes; probes answered fresh.
        self.probe_iterations = 0
        self.fresh_probes = 0

    def _lambda_model(self) -> Tuple[HighsModel, np.ndarray, float]:
        if self._solved is None:
            index = self._topology.index()
            lp = _flow_lp(index, self._positive)
            # One more column, λ: absent from the capacity rows, and -d in the
            # conservation rows so that they read ``A_eq f - λ d = 0``.
            num_rows, num_flows = lp.a_eq.shape
            cost = np.zeros(num_flows + 1)
            cost[-1] = -1.0
            _MAX_CONCURRENT_SOLVES.inc()
            model = _lp_model(
                cost,
                sparse.hstack([lp.a_ub, sparse.coo_matrix((index.num_arcs, 1))]),
                lp.capacity_rhs(1.0),
                sparse.hstack([lp.a_eq, sparse.coo_matrix(-lp.eq_rhs[:, None])]),
                np.zeros(num_rows),
            )
            solution = model.solve()
            if solution is None:
                raise SolverError(
                    "max-concurrent-flow solver failed: HiGHS reports the LP infeasible"
                )
            self._solved = (model, np.array([num_flows]), float(solution[-1]))
        return self._solved

    def max_scale(self) -> float:
        """The largest ``λ`` such that ``λ * demands`` fits the full topology,
        exact up to the solver's tolerances.

        Returns:
            ``λ*``; ``0.0`` when some demand cannot be routed at any volume
            and ``inf`` when there is no positive demand.

        Raises:
            SolverError: If the solver does not reach an optimum.
        """
        if not self._positive:
            return float("inf")
        if not self._routable:
            return 0.0
        return self._lambda_model()[2]

    def feasible_at(self, scale: float) -> bool:
        """What ``is_demand_feasible(topology, demands.scaled(scale))`` answers.

        Raises:
            SolverError: If a solve ends neither optimal nor infeasible (the
                model then takes no further calls).
        """
        if self._positive and self._routable:
            model, column, lambda_star = self._lambda_model()
            if abs(scale - lambda_star) > PINNED_PROBE_BAND * lambda_star:
                model.set_bounds(column, np.array([scale]), np.array([scale]))
                _FEASIBILITY_SOLVES.inc()
                iterations_before = model.iterations
                solution = model.solve()
                self.probe_iterations += model.iterations - iterations_before
                return solution is not None
            self.fresh_probes += 1
        # Solver-free without a model; the LP a caller would ask in the band.
        return is_demand_feasible(self._topology, self._demands.scaled(scale))


def is_demand_feasible(topology: Topology, demands: TrafficMatrix) -> bool:
    """Whether *demands* can be carried by the network at all."""
    return solve_mcf(topology, demands).feasible
