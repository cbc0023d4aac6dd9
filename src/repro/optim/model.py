"""Exact arc-based MILP of Section 2.2.1.

This is the formulation the paper (and the related work it cites) hands to
CPLEX: binary per-flow arc variables, binary link/node power states, the
multi-commodity-flow constraints plus the three energy-coupling constraints.
It is NP-hard and only practical for small topologies — the paper reports
hours even for medium ISP networks — so nothing in the library's pipelines
calls it: it is the reference the tests hold the path MILP of
:mod:`repro.optim.pathmilp` and the heuristics against.

The flow rows are the flow LP's (:func:`repro.routing.mcf.flow_structure`,
one commodity per pair, unit flows) and the on/off half is the path MILP's
(:class:`repro.optim.solution.OnOffModel`).  Flows are binary, so the
optimum is the single-path one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import InfeasibleError, SolverError
from ..power.model import PowerModel
from ..routing.highs import MILP_SOLVES, HighsModel, milp_options
from ..routing.mcf import flow_structure
from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology
from ..topology.index import TopologyIndex
from ..traffic.matrix import Pair, TrafficMatrix
from .solution import EnergyAwareSolution, OnOffModel

#: Guard against accidentally building an intractable instance.
MAX_FLOW_VARIABLES = 30_000

#: Safety margin ``sm`` on arc capacities and the solver's wall-clock budget.
UTILISATION_LIMIT = 1.0
TIME_LIMIT_S = 120.0

_SOLVES = MILP_SOLVES.labels(kind="arc")


# repro: allow[REP501] paper §2.2.1 reference; test_arc_milp_matches_path_milp_on_example
def solve_arc_milp(
    topology: Topology,
    power_model: PowerModel,
    demands: TrafficMatrix,
    fixed_on_nodes: Optional[Iterable[str]] = None,
    fixed_on_links: Optional[Iterable[Tuple[str, str]]] = None,
    solver_name: str = "arc-milp",
) -> EnergyAwareSolution:
    """Solve the exact formulation and extract single-path routes.

    Args:
        topology: The physical topology.
        power_model: Power coefficients for the objective.
        demands: Traffic matrix (every pair listed requires connectivity).
        fixed_on_nodes: Nodes whose ``X_i`` is fixed to one.
        fixed_on_links: Links whose ``Y`` is fixed to one.
        solver_name: Label recorded in the solution.

    Raises:
        SolverError: If the instance exceeds :data:`MAX_FLOW_VARIABLES`
            (use :func:`repro.optim.pathmilp.solve_path_milp` instead) or the
            solver fails unexpectedly.
        InfeasibleError: If the demand cannot be carried at all.
    """
    pairs: List[Pair] = demands.pairs()
    index = topology.index()
    num_arcs, num_nodes = index.num_arcs, len(index.node_names)
    num_flow = len(pairs) * num_arcs
    if num_flow > MAX_FLOW_VARIABLES:
        raise SolverError(
            f"arc-based MILP would need {num_flow} flow variables; "
            "use the path-restricted solver for instances of this size"
        )

    # Variable layout: [f (arcs of pair 0, of pair 1, ...) | y | x].
    on_off = OnOffModel(topology, power_model, num_flow, fixed_on_nodes, fixed_on_links)
    y0, rows = on_off.y0, on_off.rows
    cost = on_off.cost
    # A vanishing preference for fewer hops breaks ties without affecting the
    # power optimum; it sits below HiGHS's tolerances, so a flow may still
    # carry a loop, which :func:`_route` drops.
    cost[:num_flow] = 1e-6 * max(cost.max(), 1.0) / max(num_arcs, 1)

    a_eq, a_ub = flow_structure(index.arc_src, index.arc_dst, num_nodes, len(pairs))
    commodity = np.arange(len(pairs))
    balance = np.zeros((len(pairs), num_nodes))
    balance[commodity, [index.node_index[origin] for origin, _ in pairs]] = 1.0
    balance[commodity, [index.node_index[destination] for _, destination in pairs]] = -1.0
    # Scale by the largest capacity to keep coefficients well conditioned.
    scale = float(index.arc_capacity.max())
    demand = np.array([max(demands[pair], 0.0) for pair in pairs])
    arcs, arc_y = np.arange(num_arcs), y0 + index.arc_link
    families = (
        # Flow conservation per (pair, node): a unit flow from origin to
        # destination.
        rows(balance.size, (a_eq.row, a_eq.col, a_eq.data)),
        # Per arc, constraint (2): capacity, sum_p d_p f_{p,arc} - C_arc * sm
        # * y_link <= 0, then activation, sum_p f_{p,arc} - |P| y_link <= 0
        # (even a pair with no demand may only use active links).
        rows(
            2 * num_arcs,
            (2 * a_ub.row, a_ub.col, demand[a_ub.col // num_arcs] / scale),
            (2 * arcs, arc_y, -index.arc_capacity * UTILISATION_LIMIT / scale),
            (2 * a_ub.row + 1, a_ub.col, 1.0),
            (2 * arcs + 1, arc_y, -float(len(pairs))),
        ),
        # Constraints (1) and (3).
        *on_off.coupling,
    )
    matrix = on_off.stack(families)
    row_lower = np.full(matrix.shape[0], -np.inf)
    row_upper = np.zeros(matrix.shape[0])
    row_lower[: balance.size] = row_upper[: balance.size] = balance.ravel()

    model = HighsModel(
        cost / max(cost.max(), 1.0),
        matrix,
        row_lower,
        row_upper,
        on_off.lower,
        np.ones(on_off.width),
        milp_options(TIME_LIMIT_S),
        np.ones(on_off.width, dtype=bool),
    )
    _SOLVES.inc()
    solution = model.solve()
    if solution is None:
        raise InfeasibleError("the demand cannot be carried even with all elements active")

    flows = solution[:num_flow].reshape(len(pairs), num_arcs) > 0.5
    routing = RoutingTable(
        {pair: _route(index, pair, used) for pair, used in zip(pairs, flows, strict=True)},
        name=solver_name,
    )
    nodes, links = on_off.decode(solution, routing)
    return EnergyAwareSolution.of(
        topology,
        power_model,
        nodes,
        links,
        routing,
        solver_name,
        optimal=model.optimal,
        gap=model.gap,
    )


def _route(index: TopologyIndex, pair: Pair, used: np.ndarray) -> Path:
    """The simple path a pair's unit flow (*used*: its arcs, index order)
    takes.  The walk leaves a node by its last unused flow arc; a return to
    a node already walked closes a circulation (which the solver's relative
    gap tolerates), and the walk drops it and goes on from there."""
    successors: Dict[int, List[int]] = {}
    for arc in np.flatnonzero(used).tolist():
        successors.setdefault(int(index.arc_src[arc]), []).append(int(index.arc_dst[arc]))
    walk = [index.node_index[pair[0]]]
    destination = index.node_index[pair[1]]
    while walk[-1] != destination:
        if not successors.get(walk[-1]):
            raise SolverError(f"could not extract a simple path for pair {pair}")
        successor = successors[walk[-1]].pop()
        if successor in walk:
            del walk[walk.index(successor) + 1 :]
        else:
            walk.append(successor)
    return Path.of([index.node_names[node] for node in walk])
