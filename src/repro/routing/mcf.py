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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from ..exceptions import SolverError
from ..obs import metrics
from ..topology.base import Arc, Topology, link_key
from ..traffic.matrix import TrafficMatrix

_LP_SOLVES = metrics.counter(
    "repro_mcf_lp_solves_total", "HiGHS LP solves of the MCF module, by kind of LP"
)
_FEASIBILITY_SOLVES = _LP_SOLVES.labels(kind="feasibility")
_MAX_CONCURRENT_SOLVES = _LP_SOLVES.labels(kind="max_concurrent")


def pairwise_sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Fixed-order pairwise summation along *axis*.

    ``np.sum`` on some platforms picks its accumulation tree from the
    buffer's memory alignment, so two interpreter invocations can differ in
    the last ULP on the same data.  This reduction instead halves the axis
    with element-wise adds — ``a[0::2] + a[1::2]`` repeatedly, carrying a
    trailing odd element verbatim — so the evaluation tree depends only on
    the length, never on where the allocator placed the buffer.
    """
    array = np.asarray(values, dtype=float)
    array = np.moveaxis(array, axis, -1)
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
        total_flow_bps: Sum of arc loads (a hop-weighted volume; empty when
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


def _active_arcs(
    topology: Topology,
    active_nodes: Optional[Iterable[str]],
    active_links: Optional[Iterable[Tuple[str, str]]],
) -> Tuple[List[str], List[Arc]]:
    """Nodes and directed arcs of the (sub)network, in topology order."""
    nodes = topology.nodes()
    if active_nodes is not None:
        allowed = set(active_nodes)
        nodes = [node for node in nodes if node in allowed]
    node_set = set(nodes)
    if active_links is None:
        link_keys = set(topology.link_keys())
    else:
        link_keys = {link_key(u, v) for (u, v) in active_links}
    arcs = [
        arc
        for arc in topology.arcs()
        if arc.src in node_set
        and arc.dst in node_set
        and arc.link_key in link_keys
    ]
    return nodes, arcs


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
) -> Optional[_FlowLP]:
    """Assemble the LP that routes *positive*, or ``None`` if no flow can exist.

    ``None`` is what can be decided without a solver: no usable arc at all,
    or a demand whose endpoints are not :func:`_connected`.
    """
    if not arcs or not _connected(nodes, arcs, positive):
        return None
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


def solve_mcf(
    topology: Topology,
    demands: TrafficMatrix,
    utilisation_limit: float = 1.0,
    active_nodes: Optional[Iterable[str]] = None,
    active_links: Optional[Iterable[Tuple[str, str]]] = None,
) -> MCFResult:
    """Solve the splittable MCF feasibility LP.

    Args:
        topology: The physical topology.
        demands: Traffic matrix to route.
        utilisation_limit: Fraction of each arc's capacity that may be used
            (the paper's safety margin ``sm``).
        active_nodes: Restrict routing to these nodes (default: all).
        active_links: Restrict routing to these undirected links
            (default: all links between active nodes).

    Returns:
        An :class:`MCFResult`; ``feasible`` is ``False`` both when the LP is
        infeasible and when some demand endpoint is outside the active set.
    """
    nodes, arcs = _active_arcs(topology, active_nodes, active_links)
    positive = _positive_demands(demands)
    if not positive:
        return MCFResult(True, 0.0, {arc.key: 0.0 for arc in arcs}, 0.0)
    lp = _flow_lp(nodes, arcs, positive)
    if lp is None:
        return MCFResult(False, float("inf"), {}, 0.0)

    _FEASIBILITY_SOLVES.inc()
    result = linprog(
        # Objective: minimise total flow (discourages cycles and long detours).
        np.ones(lp.a_ub.shape[1]),
        A_ub=lp.a_ub,
        b_ub=lp.capacity_rhs(utilisation_limit),
        A_eq=lp.a_eq,
        b_eq=lp.eq_rhs,
        bounds=(0, None),
        method="highs",
    )
    if result.status == 2:  # infeasible
        return MCFResult(False, float("inf"), {}, 0.0)
    if not result.success:
        raise SolverError(f"MCF solver failed: {result.message}")

    solution = result.x
    # Origin by origin, in order: the per-arc sums must not depend on a
    # reduction tree (see pairwise_sum).
    loads = np.zeros(len(arcs))
    for origin_flows in solution.reshape(lp.num_origins, len(arcs)):
        loads += origin_flows
    loads_bps = loads * lp.scale
    arc_loads = {arc.key: float(load) for arc, load in zip(arcs, loads_bps, strict=True)}
    max_utilisation = float(np.max(loads_bps / lp.capacities_bps))
    return MCFResult(
        True, max_utilisation, arc_loads, float(pairwise_sum(solution)) * lp.scale
    )


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
    lp = _flow_lp(nodes, arcs, positive)
    if lp is None:
        return 0.0

    # One more column, λ: absent from the capacity rows, and -d in the
    # conservation rows so that they read ``A_eq f - λ d = 0``.
    num_rows, num_flows = lp.a_eq.shape
    cost = np.zeros(num_flows + 1)
    cost[-1] = -1.0
    _MAX_CONCURRENT_SOLVES.inc()
    result = linprog(
        cost,
        A_ub=sparse.hstack([lp.a_ub, sparse.coo_matrix((len(arcs), 1))]),
        b_ub=lp.capacity_rhs(1.0),
        A_eq=sparse.hstack([lp.a_eq, sparse.coo_matrix(-lp.eq_rhs[:, None])]),
        b_eq=np.zeros(num_rows),
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"max-concurrent-flow solver failed: {result.message}")
    return float(result.x[-1])


def demands_connected(
    topology: Topology,
    demands: TrafficMatrix,
    active_nodes: Optional[Iterable[str]] = None,
    active_links: Optional[Iterable[Tuple[str, str]]] = None,
) -> bool:
    """The solver-free part of :func:`is_demand_feasible`: ``False`` means the
    (sub)network cannot carry *demands* at any capacity."""
    nodes, arcs = _active_arcs(topology, active_nodes, active_links)
    return _connected(nodes, arcs, _positive_demands(demands))


def is_demand_feasible(
    topology: Topology,
    demands: TrafficMatrix,
    utilisation_limit: float = 1.0,
    active_nodes: Optional[Iterable[str]] = None,
    active_links: Optional[Iterable[Tuple[str, str]]] = None,
) -> bool:
    """Whether *demands* can be carried by the (sub)network at all."""
    return solve_mcf(
        topology,
        demands,
        utilisation_limit=utilisation_limit,
        active_nodes=active_nodes,
        active_links=active_links,
    ).feasible
