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

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from ..exceptions import InfeasibleError
from ..power.model import PowerModel
from ..routing.highs import MILP_SOLVES, HighsModel, milp_options
from ..routing.ksp import CandidatePaths
from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology, link_key
from ..traffic.matrix import Pair, TrafficMatrix
from .solution import EnergyAwareSolution, OnOffModel

#: The solver's wall-clock budget per solve.
TIME_LIMIT_S = 60.0

_SOLVES = MILP_SOLVES.labels(kind="path")


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
    k: int = 3,
    utilisation_limit: float = 1.0,
    relaxed: bool = False,
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
        k: Candidate paths per pair.
        utilisation_limit: Safety margin ``sm``: fraction of each arc's
            capacity available to the solver.
        relaxed: Make the path-selection variables continuous — a faster
            LP-like relaxation, never reported optimal, whose routing table
            uses each pair's most-selected path.  The default is the paper's
            single-path routing (binary selections).
        candidate_paths: The provider each pair's *k* shortest paths (by
            inverse capacity) are drawn from; callers solving repeatedly on
            one topology share one so the enumeration is paid once.
            Defaults to a private provider.
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
    pairs = [pair for pair in demands.pairs()]
    if not pairs:
        always_on = {name for name in topology.nodes() if topology.node(name).always_powered}
        routing = RoutingTable({}, name=solver_name)
        return EnergyAwareSolution.of(
            topology, power_model, always_on, set(), routing, solver_name, optimal=True
        )

    if candidate_paths is None:
        candidate_paths = CandidatePaths(topology)
    forbidden_set = (
        {link_key(u, v) for (u, v) in forbidden_links} if forbidden_links else None
    )
    candidates = _filter_candidates(
        candidate_paths.for_pairs(pairs, k), forbidden_set, latency_bound, topology
    )

    # Variable layout: [z (a block of path selections per pair) | y (links,
    # index order) | x (nodes, index order)].
    index = topology.index()
    compiled = [index.compile_path(path) for pair in pairs for path in candidates[pair]]
    block = np.cumsum([0] + [len(candidates[pair]) for pair in pairs])
    num_paths = len(compiled)
    on_off = OnOffModel(topology, power_model, num_paths, fixed_on_nodes, fixed_on_links)
    y0, num_vars = on_off.y0, on_off.width
    # One entry per hop of every candidate: its path (a z column), arc and link.
    hop_path = np.repeat(np.arange(num_paths), [len(path.arc_indices) for path in compiled])
    hop_arc = np.concatenate([path.arc_indices for path in compiled])
    hop_link = np.concatenate([path.link_indices for path in compiled])
    pair_of_path = np.repeat(np.arange(len(pairs)), np.diff(block))
    hop_demand = np.array([demands[pair] for pair in pairs])[pair_of_path[hop_path]]
    loaded = hop_demand > 0.0
    cost_scale = max(on_off.cost.max(), 1.0)

    # Scale by the largest capacity to keep coefficients well conditioned.
    scale = float(index.arc_capacity.max())
    arcs, hops = np.arange(index.num_arcs), np.arange(len(hop_path))
    rows = on_off.rows
    families = (
        # (a) Each pair selects exactly one candidate path.
        rows(len(pairs), (pair_of_path, np.arange(num_paths), 1.0)),
        # (b) Arc capacity coupled to link activation:
        #     sum_p d_p z_{p,j∋arc} - C_arc * sm * y_link <= 0.
        rows(
            len(arcs),
            (arcs, y0 + index.arc_link, -index.arc_capacity * utilisation_limit / scale),
            (hop_arc[loaded], hop_path[loaded], hop_demand[loaded] / scale),
        ),
        # (c) Connectivity coupling: a selected path activates its links,
        #     z_{p,j} <= y_l for every link l on the path, in hop order (the
        #     row order decides which of several degenerate optima the
        #     solver returns; a path is simple, so no link repeats).
        rows(len(hops), (hops, hop_path, 1.0), (hops, y0 + hop_link, -1.0)),
        # (d), (e) Constraints (1) and (3) of the on/off half.
        *on_off.coupling,
    )
    matrix = sparse.csc_array(sparse.vstack(families))
    row_upper = np.zeros(matrix.shape[0])
    row_upper[: len(pairs)] = 1.0
    integer = np.ones(num_vars, dtype=bool)
    integer[:num_paths] = not relaxed

    model = HighsModel(
        on_off.cost / cost_scale,
        matrix,
        np.where(row_upper > 0.0, 1.0, -np.inf),
        row_upper,
        on_off.lower,
        np.ones(num_vars),
        milp_options(TIME_LIMIT_S),
        integer,
    )
    _SOLVES.inc()
    solution = model.solve()
    if solution is None:
        raise InfeasibleError(
            "the demand cannot be carried even with all elements active "
            "(within the candidate-path restriction)"
        )

    chosen = {
        pair: candidates[pair][int(np.argmax(solution[first:last]))]
        for pair, first, last in zip(pairs, block[:-1], block[1:], strict=True)
    }
    routing = RoutingTable(chosen, name=solver_name)
    nodes, links = on_off.decode(solution, routing)
    return EnergyAwareSolution.of(
        topology,
        power_model,
        nodes,
        links,
        routing,
        solver_name,
        optimal=model.optimal and not relaxed,
        gap=model.gap,
    )
