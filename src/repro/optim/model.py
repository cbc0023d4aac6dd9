"""Exact arc-based MILP of Section 2.2.1.

This is the formulation the paper (and the related work it cites) hands to
CPLEX: binary per-flow arc variables, binary link/node power states, the
multi-commodity-flow constraints plus the three energy-coupling constraints.
It is NP-hard and only practical for small topologies — the paper reports
hours even for medium ISP networks — so the library uses it for validation
and for the small example/testbed topologies, while
:mod:`repro.optim.pathmilp` serves the evaluation-sized networks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..exceptions import InfeasibleError, SolverError
from ..power.accounting import network_power
from ..power.model import PowerModel
from ..routing.highs import MILP_SOLVES, HighsModel, milp_options
from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology, link_key
from ..traffic.matrix import Pair, TrafficMatrix
from .solution import EnergyAwareSolution, element_power_coefficients

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
    arcs = topology.arcs()
    if len(pairs) * len(arcs) > MAX_FLOW_VARIABLES:
        raise SolverError(
            f"arc-based MILP would need {len(pairs) * len(arcs)} flow variables; "
            "use the path-restricted solver for instances of this size"
        )

    nodes = topology.nodes()
    links = topology.link_keys()
    node_index = {name: position for position, name in enumerate(nodes)}
    arc_index = {arc.key: position for position, arc in enumerate(arcs)}
    link_index = {key: position for position, key in enumerate(links)}

    num_flow = len(pairs) * len(arcs)
    num_vars = num_flow + len(links) + len(nodes)

    def f_var(pair_position: int, arc_position: int) -> int:
        return pair_position * len(arcs) + arc_position

    def y_var(key: Tuple[str, str]) -> int:
        return num_flow + link_index[key]

    def x_var(name: str) -> int:
        return num_flow + len(links) + node_index[name]

    node_power, link_power = element_power_coefficients(topology, power_model)
    cost = np.zeros(num_vars)
    for key, power in link_power.items():
        cost[y_var(key)] = power
    for name, power in node_power.items():
        cost[x_var(name)] = power
    # A vanishing preference for fewer hops breaks ties and avoids gratuitous
    # loops in the extracted paths without affecting the power optimum.
    hop_penalty = 1e-6 * max(cost.max(), 1.0) / max(len(arcs), 1)
    cost[:num_flow] = hop_penalty

    lower = np.zeros(num_vars)
    upper = np.ones(num_vars)
    fixed_nodes = set(fixed_on_nodes or ())
    for name in nodes:
        if topology.node(name).always_powered or name in fixed_nodes:
            lower[x_var(name)] = 1.0
    for key in (link_key(u, v) for u, v in fixed_on_links or ()):
        if key in link_index:
            lower[y_var(key)] = 1.0

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    constraint_lower: List[float] = []
    constraint_upper: List[float] = []
    row_count = 0

    def add_entry(row: int, column: int, value: float) -> None:
        rows.append(row)
        cols.append(column)
        vals.append(value)

    # Flow conservation per (pair, node): out - in = 1 at the origin,
    # -1 at the destination, 0 elsewhere.
    for pair_position, (origin, destination) in enumerate(pairs):
        for name in nodes:
            for arc in topology.outgoing_arcs(name):
                add_entry(row_count, f_var(pair_position, arc_index[arc.key]), 1.0)
            for neighbour in topology.neighbors(name):
                incoming = topology.arc(neighbour, name)
                add_entry(row_count, f_var(pair_position, arc_index[incoming.key]), -1.0)
            if name == origin:
                balance = 1.0
            elif name == destination:
                balance = -1.0
            else:
                balance = 0.0
            constraint_lower.append(balance)
            constraint_upper.append(balance)
            row_count += 1

    # Capacity and link-activation coupling (constraint 2).
    capacity_scale = max(arc.capacity_bps for arc in arcs)
    for arc in arcs:
        arc_position = arc_index[arc.key]
        for pair_position, pair in enumerate(pairs):
            demand = demands[pair]
            coefficient = max(demand, 0.0) / capacity_scale
            add_entry(row_count, f_var(pair_position, arc_position), coefficient)
            # Even zero-demand flows may only use active links.
            add_entry(row_count + 1, f_var(pair_position, arc_position), 1.0)
        add_entry(
            row_count,
            y_var(link_key(arc.src, arc.dst)),
            -arc.capacity_bps * UTILISATION_LIMIT / capacity_scale,
        )
        constraint_lower.append(-np.inf)
        constraint_upper.append(0.0)
        add_entry(row_count + 1, y_var(link_key(arc.src, arc.dst)), -float(len(pairs)))
        constraint_lower.append(-np.inf)
        constraint_upper.append(0.0)
        row_count += 2

    # Constraint (1): links of a powered-off router are inactive.
    for key in links:
        for endpoint in key:
            add_entry(row_count, y_var(key), 1.0)
            add_entry(row_count, x_var(endpoint), -1.0)
            constraint_lower.append(-np.inf)
            constraint_upper.append(0.0)
            row_count += 1

    # Constraint (3): a router with no active link is powered off.
    for name in nodes:
        if lower[x_var(name)] >= 1.0:
            continue
        incident = [link.key for link in topology.incident_links(name)]
        if not incident:
            continue
        add_entry(row_count, x_var(name), 1.0)
        for key in incident:
            add_entry(row_count, y_var(key), -1.0)
        constraint_lower.append(-np.inf)
        constraint_upper.append(0.0)
        row_count += 1

    model = HighsModel(
        cost / max(cost.max(), 1.0),
        sparse.csc_array((vals, (rows, cols)), shape=(row_count, num_vars)),
        np.array(constraint_lower),
        np.array(constraint_upper),
        lower,
        upper,
        milp_options(TIME_LIMIT_S),
        np.ones(num_vars, dtype=bool),
    )
    _SOLVES.inc()
    solution = model.solve()
    if solution is None:
        raise InfeasibleError("the demand cannot be carried even with all elements active")

    active_links = {key for key in links if solution[y_var(key)] > 0.5}
    active_nodes = {name for name in nodes if solution[x_var(name)] > 0.5}

    routing = _extract_paths(topology, pairs, arcs, solution, f_var, arc_index, solver_name)
    active_nodes |= routing.used_nodes()
    active_links |= routing.used_links()

    power = network_power(topology, power_model, active_nodes, active_links).total_w
    return EnergyAwareSolution(
        active_nodes=active_nodes,
        active_links=active_links,
        routing=routing,
        power_w=power,
        objective_w=power,
        optimal=model.optimal,
        solver=solver_name,
        gap=model.gap,
    )


def _extract_paths(
    topology: Topology,
    pairs: List[Pair],
    arcs: list,
    solution: np.ndarray,
    f_var,
    arc_index: Dict[Tuple[str, str], int],
    solver_name: str,
) -> RoutingTable:
    """Walk the binary flow variables into node paths."""
    table: Dict[Pair, Path] = {}
    for pair_position, (origin, destination) in enumerate(pairs):
        next_hop: Dict[str, str] = {}
        for arc in arcs:
            if solution[f_var(pair_position, arc_index[arc.key])] > 0.5:
                next_hop[arc.src] = arc.dst
        nodes = [origin]
        current = origin
        visited = {origin}
        while current != destination:
            successor = next_hop.get(current)
            if successor is None or successor in visited:
                raise SolverError(
                    f"could not extract a simple path for pair {(origin, destination)}"
                )
            nodes.append(successor)
            visited.add(successor)
            current = successor
        table[(origin, destination)] = Path.of(nodes)
    return RoutingTable(table, name=solver_name)
