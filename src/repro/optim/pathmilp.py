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
elements stay on.

The objective is the network power of the active subset, with ties broken
on purpose (:func:`_tie_broken_cost`): of the routings with the least power,
one solve returns the one with the fewest hops over the chosen paths, then
the lowest candidate ranks (summed with the earlier pairs weighing more),
whatever HiGHS's heuristics and row order would land on.  The relaxation
keeps the plain power objective.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
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

#: Element watts are read as the nearest fraction with a denominator up to
#: this, which is exact for the library's power models: they charge
#: multiples of 0.1 W (Cisco, alternative hardware) or of a commodity
#: switch's per-port share (peak × idle fraction / ports).
MAX_WATT_DENOMINATOR = 1_000_000

#: The tie-broken objective stays below this, where HiGHS still resolves it
#: to the unit (the path MILPs of the harness grid and of fig8a / fig8b keep
#: their decisions with the power tier scaled to 4e14).
MAX_OBJECTIVE = 2.0**48


@functools.lru_cache(maxsize=64)
def _power_step(watts: Tuple[float, ...]) -> float:
    """The model's power step: the largest step that divides each of
    *watts* (an element's watts, each read as a fraction), so two subsets
    whose power differs, differ by at least one step."""
    fractions = [Fraction(value).limit_denominator(MAX_WATT_DENOMINATOR) for value in watts]
    common = math.lcm(*(fraction.denominator for fraction in fractions))
    whole = [fraction.numerator * (common // fraction.denominator) for fraction in fractions]
    return math.gcd(*whole) / common or 1.0


def _tie_broken_cost(watts: np.ndarray, hops: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The path MILP's objective, ``R × power units + W × excess hops +
    weighted rank``, all integers.

    *watts* is the on/off columns' cost, *hops* each candidate's hop count
    and *block* the first column of each of the ``P`` pairs (and the end).
    Power is counted in the model's step (:func:`_power_step`).  A
    candidate's excess is its hops over its pair's fewest; its weighted rank
    is its position in its pair's list times ``P - i`` for the ``i``-th
    pair, so the first pair's rank weighs most and two pairs trading one
    rank step never tie.  ``W`` is one more than the largest total weighted rank and
    ``R`` one more than the largest total of the last two terms.  The order
    is then exact: one power step outweighs every hop and rank, one hop
    every rank, and one unit of the objective is far above HiGHS's
    termination gap (``mip_abs_gap``, 1e-6; the relative gap is 0).

    Should ``R`` times one more than the whole network's units pass
    :data:`MAX_OBJECTIVE` (no shipped power model and pair set comes
    near), the units are scaled down to fit and rounded down, and power is
    compared to within that coarser step.
    """
    first = block[:-1]
    pair = np.repeat(np.arange(len(first)), np.diff(block))
    rank = (np.arange(len(hops)) - block[pair]) * (len(first) - pair)
    excess = hops - np.minimum.reduceat(hops, first)[pair]
    secondary = (np.maximum.reduceat(rank, first).sum() + 1) * excess + rank
    scale = float(np.maximum.reduceat(secondary, first).sum() + 1)
    units = np.round(watts / _power_step(tuple(np.unique(watts).tolist())))
    if scale * (units.sum() + 1.0) > MAX_OBJECTIVE:
        units = np.floor(units * ((MAX_OBJECTIVE / scale - 1.0) / units.sum()))
    return np.concatenate([secondary.astype(float), scale * units])


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

    if relaxed:
        cost = on_off.cost / max(on_off.cost.max(), 1.0)
    else:
        hops = np.array([len(path.arc_indices) for path in compiled])
        cost = _tie_broken_cost(on_off.cost[num_paths:], hops, block)
    model = HighsModel(
        cost,
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
