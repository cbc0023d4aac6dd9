"""Path-restricted mixed-integer program for energy-aware routing.

This is the library's workhorse solver.  It keeps the paper's objective and
on/off semantics (Section 2.2.1) but, like GreenTE [41], restricts each
origin-destination pair to a small set of candidate paths (its k shortest
paths by default).  The restriction turns the intractable arc-based MILP into
a problem with a few thousand binaries that the HiGHS solver handles in
seconds on the paper's topologies, while still producing installable
single-path routing tables.

Decision variables:

* ``z[p, j]`` — pair ``p`` uses its ``j``-th candidate path (binary),
* ``y[l]`` — undirected link ``l`` is active (binary),
* ``x[i]`` — node ``i`` is powered on (binary).

Constraints: each pair picks exactly one path; arc loads respect capacities
scaled by the safety margin and require the link to be active; a link
requires both endpoints on; a router with no active link is off; fixed
elements stay on.  The objective is the network power of the active subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..exceptions import InfeasibleError, SolverError
from ..power.model import PowerModel
from ..routing.ksp import CandidatePaths
from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology, link_key
from ..traffic.matrix import Pair, TrafficMatrix
from .solution import EnergyAwareSolution, element_power_coefficients, solution_power

#: Default number of candidate paths per origin-destination pair.
DEFAULT_NUM_CANDIDATE_PATHS = 3

#: Relative optimality gap at which the solver may stop.
MIP_REL_GAP = 1e-4


@dataclass
class PathMilpConfig:
    """Tuning knobs of the path-restricted MILP.

    Attributes:
        k: Candidate paths per pair when none are supplied explicitly.
        utilisation_limit: Safety margin ``sm``: fraction of each arc's
            capacity available to the solver.
        integral_paths: Use binary path-selection variables (single-path
            routing, as in the paper).  Setting this to ``False`` yields a
            faster LP-like relaxation whose routing table uses each pair's
            most-selected path.
        time_limit_s: Wall-clock limit handed to the solver.
    """

    k: int = DEFAULT_NUM_CANDIDATE_PATHS
    utilisation_limit: float = 1.0
    integral_paths: bool = True
    time_limit_s: Optional[float] = 60.0


def _filter_candidates(
    candidates: Mapping[Pair, Sequence[Path]],
    forbidden_links: Optional[Set[Tuple[str, str]]],
    latency_bound: Optional[Mapping[Pair, float]],
    topology: Topology,
) -> Dict[Pair, List[Path]]:
    """Apply the stress-exclusion and latency-bound filters to candidates.

    A pair always keeps at least one candidate: when every candidate violates
    a filter, the least-violating one survives (fewest forbidden links, then
    lowest latency).  This mirrors the paper's pragmatic treatment — the
    constraints steer the computation but must not disconnect the network.
    """
    forbidden = forbidden_links or set()
    filtered: Dict[Pair, List[Path]] = {}
    for pair, paths in candidates.items():
        if not paths:
            raise InfeasibleError(f"pair {pair} has no candidate paths")
        kept = list(paths)
        if forbidden:
            non_forbidden = [
                path
                for path in kept
                if not any(link_key(*arc) in forbidden for arc in path.arc_keys())
            ]
            if non_forbidden:
                kept = non_forbidden
            else:
                kept = [
                    min(
                        kept,
                        key=lambda path: sum(
                            1 for arc in path.arc_keys() if link_key(*arc) in forbidden
                        ),
                    )
                ]
        if latency_bound is not None and pair in latency_bound:
            bound = latency_bound[pair]
            within = [path for path in kept if path.latency(topology) <= bound + 1e-12]
            kept = within if within else [min(kept, key=lambda path: path.latency(topology))]
        filtered[pair] = kept
    return filtered


def solve_path_milp(
    topology: Topology,
    power_model: PowerModel,
    demands: TrafficMatrix,
    config: Optional[PathMilpConfig] = None,
    candidate_paths: Optional[CandidatePaths] = None,
    fixed_on_nodes: Optional[Iterable[str]] = None,
    fixed_on_links: Optional[Iterable[Tuple[str, str]]] = None,
    forbidden_links: Optional[Iterable[Tuple[str, str]]] = None,
    latency_bound: Optional[Mapping[Pair, float]] = None,
    solver_name: str = "path-milp",
) -> EnergyAwareSolution:
    """Minimise network power subject to routing the given demands.

    Args:
        topology: The physical topology.
        power_model: Supplies the ``Pc``/``Pl``/``Pa`` coefficients.
        demands: Traffic matrix; pairs with zero demand still require
            connectivity (use :meth:`TrafficMatrix.epsilon` for the paper's
            demand-oblivious always-on computation).
        config: Solver configuration; defaults to :class:`PathMilpConfig`.
        candidate_paths: The provider each pair's ``config.k`` shortest
            paths (by inverse capacity) are drawn from; callers solving
            repeatedly on one topology share one so the enumeration is paid
            once.  Defaults to a private provider.
        fixed_on_nodes: Nodes forced to stay powered on (the paper keeps the
            always-on elements fixed when computing on-demand paths).
        fixed_on_links: Undirected links forced to stay active.
        forbidden_links: Undirected links candidate paths should avoid (the
            stress-factor exclusion of Section 4.2).
        latency_bound: Per-pair maximum path latency in seconds (constraint
            (4), used by REsPoNse-lat).
        solver_name: Label recorded in the returned solution.

    Returns:
        An :class:`EnergyAwareSolution` with explicit single paths per pair.

    Raises:
        InfeasibleError: If the demands cannot be carried even with every
            element active (given the candidate path restriction).
        SolverError: On unexpected solver failures.
    """
    cfg = config or PathMilpConfig()
    pairs = [pair for pair in demands.pairs()]
    if not pairs:
        always_on = {
            name for name in topology.nodes() if topology.node(name).always_powered
        }
        return EnergyAwareSolution(
            active_nodes=always_on,
            active_links=set(),
            routing=RoutingTable({}, name=solver_name),
            power_w=solution_power(topology, power_model, always_on, set()),
            objective_w=0.0,
            optimal=True,
            solver=solver_name,
        )

    if candidate_paths is None:
        candidate_paths = CandidatePaths(topology)
    forbidden_set = (
        {link_key(u, v) for (u, v) in forbidden_links} if forbidden_links else None
    )
    candidates = _filter_candidates(
        candidate_paths.for_pairs(pairs, cfg.k), forbidden_set, latency_bound, topology
    )

    node_power, link_power = element_power_coefficients(topology, power_model)
    nodes = topology.nodes()
    links = topology.link_keys()
    node_index = {name: position for position, name in enumerate(nodes)}
    link_index = {key: position for position, key in enumerate(links)}

    # Variable layout: [z (path selections)..., y (links)..., x (nodes)...].
    path_vars: List[Tuple[Pair, int]] = []  # (pair, candidate index)
    path_var_offset: Dict[Tuple[Pair, int], int] = {}
    for pair in pairs:
        for candidate_position in range(len(candidates[pair])):
            path_var_offset[(pair, candidate_position)] = len(path_vars)
            path_vars.append((pair, candidate_position))
    num_path_vars = len(path_vars)
    num_links = len(links)
    num_nodes = len(nodes)
    num_vars = num_path_vars + num_links + num_nodes

    def y_var(link: Tuple[str, str]) -> int:
        return num_path_vars + link_index[link]

    def x_var(node: str) -> int:
        return num_path_vars + num_links + node_index[node]

    cost = np.zeros(num_vars)
    for key, power in link_power.items():
        cost[y_var(key)] = power
    for name, power in node_power.items():
        cost[x_var(name)] = power

    lower = np.zeros(num_vars)
    upper = np.ones(num_vars)

    fixed_nodes = set(fixed_on_nodes or ())
    fixed_links = {link_key(u, v) for (u, v) in (fixed_on_links or ())}
    for name in nodes:
        if topology.node(name).always_powered or name in fixed_nodes:
            lower[x_var(name)] = 1.0
    for key in sorted(fixed_links):
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

    # (a) Each pair selects exactly one candidate path.
    for pair in pairs:
        for candidate_position in range(len(candidates[pair])):
            add_entry(row_count, path_var_offset[(pair, candidate_position)], 1.0)
        constraint_lower.append(1.0)
        constraint_upper.append(1.0)
        row_count += 1

    # (b) Arc capacity coupled to link activation:
    #     sum_p d_p z_{p,j∋arc} - C_arc * sm * y_link <= 0.
    # Scale by the largest capacity to keep coefficients well conditioned.
    capacity_scale = max(arc.capacity_bps for arc in topology.arcs())
    arc_rows: Dict[Tuple[str, str], int] = {}
    for arc in topology.arcs():
        arc_rows[arc.key] = row_count
        add_entry(
            row_count,
            y_var(link_key(arc.src, arc.dst)),
            -arc.capacity_bps * cfg.utilisation_limit / capacity_scale,
        )
        constraint_lower.append(-np.inf)
        constraint_upper.append(0.0)
        row_count += 1
    for pair in pairs:
        demand = demands[pair]
        if demand <= 0.0:
            continue
        for candidate_position, path in enumerate(candidates[pair]):
            column = path_var_offset[(pair, candidate_position)]
            for arc_key in path.arc_keys():
                add_entry(arc_rows[arc_key], column, demand / capacity_scale)

    # (c) Connectivity coupling: a selected path activates its links,
    #     z_{p,j} <= y_l for every link l on the path.
    for pair in pairs:
        for candidate_position, path in enumerate(candidates[pair]):
            column = path_var_offset[(pair, candidate_position)]
            # Ordered dedupe: the row order decides which of several
            # degenerate optima the solver returns, so it must not follow
            # set iteration (PYTHONHASHSEED).
            for key in dict.fromkeys(path.link_keys()):
                add_entry(row_count, column, 1.0)
                add_entry(row_count, y_var(key), -1.0)
                constraint_lower.append(-np.inf)
                constraint_upper.append(0.0)
                row_count += 1

    # (d) Constraint (1): an active link requires both endpoints powered on.
    for key in links:
        for endpoint in key:
            add_entry(row_count, y_var(key), 1.0)
            add_entry(row_count, x_var(endpoint), -1.0)
            constraint_lower.append(-np.inf)
            constraint_upper.append(0.0)
            row_count += 1

    # (e) Constraint (3): a router with no active incident link is off.
    for name in nodes:
        incident = [link.key for link in topology.incident_links(name)]
        if not incident or lower[x_var(name)] >= 1.0:
            continue
        add_entry(row_count, x_var(name), 1.0)
        for key in incident:
            add_entry(row_count, y_var(key), -1.0)
        constraint_lower.append(-np.inf)
        constraint_upper.append(0.0)
        row_count += 1

    matrix = sparse.csc_matrix((vals, (rows, cols)), shape=(row_count, num_vars))
    constraints = LinearConstraint(
        matrix, np.array(constraint_lower), np.array(constraint_upper)
    )

    integrality = np.ones(num_vars)
    if not cfg.integral_paths:
        integrality[:num_path_vars] = 0.0

    options: Dict[str, object] = {"mip_rel_gap": MIP_REL_GAP}
    if cfg.time_limit_s is not None:
        options["time_limit"] = cfg.time_limit_s

    result = milp(
        c=cost / max(cost.max(), 1.0),
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options=options,
    )
    if result.status == 2:
        raise InfeasibleError(
            "the demand cannot be carried even with all elements active "
            "(within the candidate-path restriction)"
        )
    if result.x is None:
        raise SolverError(f"MILP solver failed: {result.message}")

    solution = result.x
    active_links = {key for key in links if solution[y_var(key)] > 0.5}
    active_nodes = {name for name in nodes if solution[x_var(name)] > 0.5}

    chosen: Dict[Pair, Path] = {}
    for pair in pairs:
        best_position = max(
            range(len(candidates[pair])),
            key=lambda position, pair=pair: solution[path_var_offset[(pair, position)]],
        )
        chosen[pair] = candidates[pair][best_position]
    routing = RoutingTable(chosen, name=solver_name)

    # Elements used by chosen paths are always part of the active set even if
    # a fractional relaxation said otherwise.
    active_nodes |= routing.used_nodes()
    active_links |= routing.used_links()

    power = solution_power(topology, power_model, active_nodes, active_links)
    return EnergyAwareSolution(
        active_nodes=active_nodes,
        active_links=active_links,
        routing=routing,
        power_w=power,
        objective_w=float(result.fun * max(cost.max(), 1.0)) if result.fun is not None else power,
        optimal=bool(result.status == 0 and cfg.integral_paths),
        solver=solver_name,
        gap=float(result.mip_gap) if getattr(result, "mip_gap", None) is not None else 0.0,
    )
