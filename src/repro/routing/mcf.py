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

:func:`max_concurrent_flow` asks the optimisation form of the same question
("how many times this matrix fits") over the same constraint rows.

Three layers, one above the other: :func:`_flow_lp` assembles the constraint
structure, :class:`_HighsLP` is the one solver binding (SciPy's vendored
HiGHS, driven directly: the model is passed once, column bounds change in
place and a re-solve starts from the basis the last one left), and
:class:`FlowSession` is what callers hold: "route these demands with these
arcs switched off".  :func:`solve_mcf` is a session of one solve; the subset
search of :mod:`repro.optim.subset` keeps one for a whole switch-off loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
import scipy
from scipy import sparse

from ..exceptions import SolverError
from ..obs import metrics
from ..topology.base import Arc, Topology, link_key
from ..traffic.matrix import TrafficMatrix

try:
    # Private to SciPy: it is what SciPy's own LP front end drives, and the
    # only HiGHS binding here that lets a model outlive one solve.
    from scipy.optimize._highspy._core import (
        HighsLp,
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        _Highs,
        kHighsInf,
    )

    for _method in ("changeColsBounds", "getInfo", "getSolution"):
        getattr(_Highs, _method)
except (ImportError, AttributeError) as error:
    raise ImportError(
        "repro.routing.mcf drives HiGHS through scipy.optimize._highspy._core, verified on "
        f"SciPy 1.17.1 (HiGHS 1.12); SciPy {scipy.__version__} does not provide it: {error}"
    ) from error

_LP_SOLVES = metrics.counter(
    "repro_mcf_lp_solves_total", "HiGHS LP solves of the MCF module, by kind of LP"
)
_FEASIBILITY_SOLVES = _LP_SOLVES.labels(kind="feasibility")
_MAX_CONCURRENT_SOLVES = _LP_SOLVES.labels(kind="max_concurrent")
_SIMPLEX_ITERATIONS = metrics.counter(
    "repro_mcf_simplex_iterations_total",
    "Simplex iterations of the MCF module's LP solves, by whether the solve "
    "started from the basis of the previous one",
)
_FRESH_ITERATIONS = _SIMPLEX_ITERATIONS.labels(start="fresh")
_WARM_ITERATIONS = _SIMPLEX_ITERATIONS.labels(start="warm")


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


@dataclass(frozen=True)
class MCFResult:
    """Outcome of a multi-commodity-flow computation.

    Attributes:
        feasible: Whether the demand fits within the capacities.
        max_utilisation: Largest arc utilisation of the computed flow
            (``inf`` when infeasible).
        arc_loads: Load per directed arc in bits per second (empty when
            infeasible).
        total_flow_bps: Sum of arc loads (a hop-weighted volume; ``0.0`` when
            infeasible).
    """

    feasible: bool
    max_utilisation: float
    arc_loads: Dict[Tuple[str, str], float]
    total_flow_bps: float


@dataclass(frozen=True)
class _FlowLP:
    """The origin-aggregated flow LP of one (arc set, demand set).

    Variable ``o * num_arcs + a`` is the flow of origin ``o`` on arc ``a``;
    ``a_eq`` is flow conservation per (origin, node) and ``a_ub`` the total
    flow per arc.  ``eq_rhs`` is in units of ``scale`` (the largest arc
    capacity): demands expressed in bits per second reach 1e8-1e10, which
    interacts badly with the solver's absolute feasibility tolerances.
    """

    num_origins: int
    a_eq: sparse.coo_matrix
    a_ub: sparse.coo_matrix
    eq_rhs: np.ndarray
    capacities_bps: np.ndarray
    scale: float

    def capacity_rhs(self, utilisation_limit: float) -> np.ndarray:
        return self.capacities_bps * utilisation_limit / self.scale


def _within(
    nodes: List[str],
    arcs: List[Arc],
    active_nodes: Optional[Iterable[str]],
    active_links: Optional[Iterable[Tuple[str, str]]],
) -> Tuple[List[str], List[Arc]]:
    """Those of *nodes* and *arcs* that lie within the active sets, in order."""
    if active_nodes is not None:
        allowed = set(active_nodes)
        nodes = [node for node in nodes if node in allowed]
    node_set = set(nodes)
    link_keys = None if active_links is None else {link_key(u, v) for (u, v) in active_links}
    arcs = [
        arc
        for arc in arcs
        if arc.src in node_set
        and arc.dst in node_set
        and (link_keys is None or arc.link_key in link_keys)
    ]
    return nodes, arcs


def _active_arcs(
    topology: Topology,
    active_nodes: Optional[Iterable[str]],
    active_links: Optional[Iterable[Tuple[str, str]]],
) -> Tuple[List[str], List[Arc]]:
    """Nodes and directed arcs of the (sub)network, in topology order."""
    return _within(topology.nodes(), topology.arcs(), active_nodes, active_links)


def _positive_demands(demands: TrafficMatrix) -> List[Tuple[Tuple[str, str], float]]:
    return [(pair, demand) for pair, demand in demands.items() if demand > 0.0]


def _constraint_structure(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, num_origins: int
) -> Tuple[sparse.coo_matrix, sparse.coo_matrix]:
    """``(A_eq, A_ub)`` for the arcs ``src[a] -> dst[a]``, one copy per origin.

    ``A_eq`` is a node-arc incidence block per origin (+1 in the row of the
    arc's source, -1 in the row of its destination) and ``A_ub`` an identity
    block per origin, side by side.  Neither depends on the demands: the
    feasibility LP and the max-concurrent-flow LP differ only in what they
    put beside them.
    """
    num_arcs = len(src)
    num_vars = num_arcs * num_origins
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
        shape=(num_nodes * num_origins, num_vars),
    )
    a_ub = sparse.coo_matrix((ones, (arc_of, columns)), shape=(num_arcs, num_vars))
    return a_eq, a_ub


def _connected(
    nodes: List[str],
    arcs: List[Arc],
    positive: List[Tuple[Tuple[str, str], float]],
) -> bool:
    """Whether every pair of *positive* has its endpoints in *nodes* and a
    directed path over *arcs*.

    Tiny demands (the paper's 1 bit/s ε flows) can fall below the LP solver's
    feasibility tolerances once the problem is rescaled, so disconnection must
    be detected combinatorially rather than numerically.
    """
    if not {node for pair, _ in positive for node in pair} <= set(nodes):
        return False
    adjacency: Dict[str, List[str]] = {}
    for arc in arcs:
        adjacency.setdefault(arc.src, []).append(arc.dst)
    reachable: Dict[str, Set[str]] = {}
    for (origin, destination), _demand in positive:
        if origin not in reachable:
            seen = {origin}
            frontier = [origin]
            while frontier:
                for neighbour in adjacency.get(frontier.pop(), ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            reachable[origin] = seen
        if destination not in reachable[origin]:
            return False
    return True


def _flow_lp(
    nodes: List[str],
    arcs: List[Arc],
    positive: List[Tuple[Tuple[str, str], float]],
) -> _FlowLP:
    """Assemble the LP that routes *positive* over *arcs* (at least one).

    What can be decided without a solver — no usable arc at all, a demand
    whose endpoints are not :func:`_connected` — is the caller's to decide
    first.
    """
    node_index = {name: index for index, name in enumerate(nodes)}

    capacities_bps = np.array([arc.capacity_bps for arc in arcs])
    scale = float(capacities_bps.max())

    origins = sorted({origin for (origin, _), _ in positive})
    demand_from: Dict[str, Dict[str, float]] = {origin: {} for origin in origins}
    for (origin, destination), demand in positive:
        demand_from[origin][destination] = (
            demand_from[origin].get(destination, 0.0) + demand / scale
        )

    # Conservation right-hand side: an origin emits what its sinks absorb.
    eq_rhs = np.zeros((len(origins), len(nodes)))
    for row, origin in enumerate(origins):
        for destination, volume in demand_from[origin].items():
            eq_rhs[row, node_index[destination]] = volume
    np.negative(eq_rhs, out=eq_rhs)
    for row, origin in enumerate(origins):
        sinks = demand_from[origin]
        eq_rhs[row, node_index[origin]] = sum(sinks.values()) - sinks.get(origin, 0.0)

    a_eq, a_ub = _constraint_structure(
        np.array([node_index[arc.src] for arc in arcs]),
        np.array([node_index[arc.dst] for arc in arcs]),
        len(nodes),
        len(origins),
    )
    return _FlowLP(len(origins), a_eq, a_ub, eq_rhs.ravel(), capacities_bps, scale)


#: What SciPy's LP front end (``method="highs"``) sets before it solves;
#: every other HiGHS option (tolerances, limits, the choice between simplex
#: and IPM) keeps its default.
_HIGHS_OPTIONS = (
    ("presolve", "on"),
    ("simplex_strategy", 1),  # dual simplex
    ("highs_debug_level", 0),
    ("log_to_console", False),
    ("output_flag", False),
)


class _HighsLP:
    """``min cost @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x == b_eq``,
    ``0 <= x <= upper``, held by one HiGHS instance.

    Rows, columns and options are exactly what SciPy's LP front end (the
    reference in ``tests/test_mcf_session.py``) hands HiGHS for the same
    arguments — inequality rows above equality rows, column-wise storage,
    :data:`_HIGHS_OPTIONS` — so the first :meth:`solve` returns that front
    end's vertex bit for bit.  Unlike it, the model stays: :meth:`set_upper`
    changes column bounds in place and the next :meth:`solve` starts from
    the basis HiGHS kept.

    Every status the binding returns is looked at.  After a failure the
    instance is dropped and any further call raises.
    """

    def __init__(
        self,
        cost: np.ndarray,
        a_ub: sparse.spmatrix,
        b_ub: np.ndarray,
        a_eq: sparse.spmatrix,
        b_eq: np.ndarray,
    ) -> None:
        matrix = sparse.csc_array(sparse.vstack((a_ub, a_eq)))
        lp = HighsLp()
        lp.num_row_, lp.num_col_ = matrix.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = matrix.shape
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        lp.col_cost_ = cost
        lp.col_lower_ = np.zeros(len(cost))
        lp.col_upper_ = np.full(len(cost), kHighsInf)
        lp.row_lower_ = np.concatenate((np.full(len(b_ub), -kHighsInf), b_eq))
        lp.row_upper_ = np.concatenate((b_ub, b_eq))
        self._highs: Optional[_Highs] = _Highs()
        self._solved_before = False
        #: Simplex iterations of every solve so far.
        self.iterations = 0
        for option, value in _HIGHS_OPTIONS:
            self._checked("setOptionValue", option, value)
        self._checked("passModel", lp)

    def _live(self) -> _Highs:
        if self._highs is None:
            raise SolverError("MCF solver failed earlier; this LP takes no further calls")
        return self._highs

    def _fail(self, reason: str) -> SolverError:
        self._highs = None
        return SolverError(f"MCF solver failed: HiGHS {reason}")

    def _checked(self, method: str, *arguments: object) -> None:
        """Call a ``_Highs`` method that reports a ``HighsStatus``."""
        status = getattr(self._live(), method)(*arguments)
        # kWarning is let through, as SciPy's front end does (HiGHS warns,
        # for one, when it drops a matrix entry below its 1e-9 threshold).
        if status == HighsStatus.kError:
            raise self._fail(f"{method} returned {status.name}")

    def set_upper(self, columns: np.ndarray, upper: np.ndarray) -> None:
        """Give *columns* the bounds ``[0, upper]``."""
        lower = np.zeros(len(columns))
        self._checked("changeColsBounds", len(columns), columns.astype(np.int32), lower, upper)

    def solve(self) -> Optional[np.ndarray]:
        """The optimal ``x``, or ``None`` when the LP is infeasible.

        Raises:
            SolverError: On any other outcome, naming HiGHS's model status.
        """
        self._checked("run")
        highs = self._live()
        iterations = int(highs.getInfo().simplex_iteration_count)
        self.iterations += iterations
        (_WARM_ITERATIONS if self._solved_before else _FRESH_ITERATIONS).inc(iterations)
        self._solved_before = True
        status = highs.getModelStatus()
        if status == HighsModelStatus.kInfeasible:
            return None
        if status != HighsModelStatus.kOptimal:
            raise self._fail(f"stopped with model status {highs.modelStatusToString(status)!r}")
        return np.array(highs.getSolution().col_value)


class FlowSession:
    """The flow LP of one (topology, demands, utilisation limit), solved with
    any of its arcs switched off.

    ``session.solve(active_nodes, active_links)`` answers what a fresh
    session opened on ``(topology, demands, utilisation_limit, active_nodes,
    active_links)`` answers at its first solve, for sets within the ones the
    session was opened on: the same solver-free early returns, the same
    ``feasible`` — ``False`` both when the LP is infeasible and when some
    demand endpoint is outside the active set.  The LP is assembled and
    passed to HiGHS once, at the first solve that needs the solver; from then
    on a solve is "the columns of the arcs that changed get upper bound 0, or
    ``inf`` again" and a run from the previous basis.

    A later solve need not land on the vertex a fresh LP over the smaller
    arc set would: ``feasible`` is the same answer either way, the flow is
    *an* optimal one.  A session belongs to one caller — it is not shared
    between threads and holds nothing worth keeping once the demands change.
    """

    def __init__(
        self,
        topology: Topology,
        demands: TrafficMatrix,
        utilisation_limit: float = 1.0,
        active_nodes: Optional[Iterable[str]] = None,
        active_links: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> None:
        self._nodes, self._arcs = _active_arcs(topology, active_nodes, active_links)
        self._positive = _positive_demands(demands)
        self._utilisation_limit = utilisation_limit
        #: Assembled and passed to HiGHS at the first solve that needs the solver.
        self._model: Optional[Tuple[_FlowLP, _HighsLP]] = None
        self._on = np.ones(len(self._arcs), dtype=bool)

    @property
    def simplex_iterations(self) -> int:
        """Simplex iterations of every solve of the session so far."""
        return 0 if self._model is None else self._model[1].iterations

    def solve(
        self,
        active_nodes: Optional[Iterable[str]] = None,
        active_links: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> MCFResult:
        """Route the demands over the session's arcs that lie within
        *active_nodes* and *active_links* (default: all of them)."""
        nodes, arcs = _within(self._nodes, self._arcs, active_nodes, active_links)
        if not self._positive:
            return MCFResult(True, 0.0, {arc.key: 0.0 for arc in arcs}, 0.0)
        if not arcs or not _connected(nodes, arcs, self._positive):
            return MCFResult(False, float("inf"), {}, 0.0)

        if self._model is None:
            lp = _flow_lp(self._nodes, self._arcs, self._positive)
            # Objective: minimise total flow (discourages cycles and long detours).
            cost = np.ones(lp.a_ub.shape[1])
            rhs = lp.capacity_rhs(self._utilisation_limit)
            self._model = (lp, _HighsLP(cost, lp.a_ub, rhs, lp.a_eq, lp.eq_rhs))
        lp, solver = self._model
        num_arcs = len(self._arcs)
        on_keys = {arc.key for arc in arcs}
        mask = np.array([arc.key in on_keys for arc in self._arcs])
        flipped = np.flatnonzero(mask != self._on)
        if len(flipped):
            # Arc ``a`` is column ``o * num_arcs + a`` of every origin ``o``.
            columns = np.add.outer(np.arange(lp.num_origins) * num_arcs, flipped).ravel()
            upper = np.where(mask[flipped], kHighsInf, 0.0)
            solver.set_upper(columns, np.tile(upper, lp.num_origins))
            self._on = mask

        _FEASIBILITY_SOLVES.inc()
        solution = solver.solve()
        if solution is None:
            return MCFResult(False, float("inf"), {}, 0.0)
        # Origin by origin, in order: the per-arc sums must not depend on a
        # reduction tree (see pairwise_sum).
        loads = np.zeros(num_arcs)
        for origin_flows in solution.reshape(lp.num_origins, num_arcs):
            loads += origin_flows
        loads_bps = loads * lp.scale
        max_utilisation = float(np.max(loads_bps / lp.capacities_bps))
        # The arcs that are on, which is what a fresh LP over them lists.
        arc_loads = {
            arc.key: load
            for arc, load in zip(self._arcs, loads_bps.tolist(), strict=True)
            if arc.key in on_keys
        }
        return MCFResult(
            True, max_utilisation, arc_loads, float(pairwise_sum(solution)) * lp.scale
        )


def solve_mcf(topology: Topology, demands: TrafficMatrix) -> MCFResult:
    """Solve the splittable MCF feasibility LP on the whole topology, every
    arc usable up to its capacity: a fresh :class:`FlowSession`'s first solve
    (open one to restrict the sets or the utilisation)."""
    return FlowSession(topology, demands).solve()


def max_concurrent_flow(topology: Topology, demands: TrafficMatrix) -> float:
    """The largest ``λ`` such that ``λ * demands`` fits the full topology.

    One LP — maximise ``λ`` subject to conservation with right-hand side
    ``λ * d`` and the capacity rows of :func:`solve_mcf` — in place of a
    search over feasibility LPs.  ``λ`` is exact only up to the solver's
    tolerances: a caller that needs a decision at a particular volume still
    asks :func:`is_demand_feasible` there.

    Returns:
        ``λ*``; ``0.0`` when some demand cannot be routed at any volume and
        ``inf`` when there is no positive demand.

    Raises:
        SolverError: If the solver does not reach an optimum.
    """
    nodes, arcs = _active_arcs(topology, None, None)
    positive = _positive_demands(demands)
    if not positive:
        return float("inf")
    if not arcs or not _connected(nodes, arcs, positive):
        return 0.0
    lp = _flow_lp(nodes, arcs, positive)

    # One more column, λ: absent from the capacity rows, and -d in the
    # conservation rows so that they read ``A_eq f - λ d = 0``.
    num_rows, num_flows = lp.a_eq.shape
    cost = np.zeros(num_flows + 1)
    cost[-1] = -1.0
    _MAX_CONCURRENT_SOLVES.inc()
    solution = _HighsLP(
        cost,
        sparse.hstack([lp.a_ub, sparse.coo_matrix((len(arcs), 1))]),
        lp.capacity_rhs(1.0),
        sparse.hstack([lp.a_eq, sparse.coo_matrix(-lp.eq_rhs[:, None])]),
        np.zeros(num_rows),
    ).solve()
    if solution is None:
        raise SolverError("max-concurrent-flow solver failed: HiGHS reports the LP infeasible")
    return float(solution[-1])


def demands_connected(
    topology: Topology,
    demands: TrafficMatrix,
    active_nodes: Optional[Iterable[str]] = None,
    active_links: Optional[Iterable[Tuple[str, str]]] = None,
) -> bool:
    """The solver-free part of :func:`solve_mcf`: ``False`` means the
    (sub)network cannot carry *demands* at any capacity."""
    nodes, arcs = _active_arcs(topology, active_nodes, active_links)
    return _connected(nodes, arcs, _positive_demands(demands))


def is_demand_feasible(topology: Topology, demands: TrafficMatrix) -> bool:
    """Whether *demands* can be carried by the network at all."""
    return solve_mcf(topology, demands).feasible
