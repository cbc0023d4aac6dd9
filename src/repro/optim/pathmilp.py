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

Constraints: each pair picks exactly one path; a pair's chosen path
requires each of its links to be active (one row per pair and link, the
fixed-charge network-design linking row); arc loads respect capacities
scaled by the safety margin, on the arcs where the pairs that can cross one
could exceed it; a link requires both endpoints on; a router with no active
link is off; fixed elements stay on.  The relaxation has the same rows.

The objective is the network power of the active subset, with ties broken
on purpose (:func:`_tie_broken_cost`): of the routings with the least power,
one solve returns the one with the fewest hops over the chosen paths, then
the lowest candidate ranks (summed with the earlier pairs weighing more),
then the least total of a fixed draw per candidate column, whatever HiGHS's
heuristics and row order would land on.  The relaxation keeps the plain
power objective.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InfeasibleError
from ..power.model import PowerModel
from ..routing.highs import MILP_SOLVES, HighsModel, milp_options
from ..routing.ksp import CandidatePaths
from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology
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

#: The first three tiers of the tie-broken objective stay below this, where
#: HiGHS still resolves it to the unit (the path MILPs of the harness grid
#: and of fig8a / fig8b keep their decisions with the power tier scaled to
#: 4e14).  The last tier only widens the objective up to a sixteenth of it.
MAX_OBJECTIVE = 2.0**48

#: The last tier's draws (:func:`_tie_draws`): ``TIE_BITS`` bits each, from
#: SplitMix64 seeded with ``TIE_SEED``.
TIE_BITS = 16
TIE_SEED = 20111206


def _tie_draws(count: int) -> np.ndarray:
    """The last tier's draw for each of the first *count* columns: the top
    :data:`TIE_BITS` bits of SplitMix64's ``c + 1``-th output for column
    ``c``, so a column's draw is the same in every model.  Written out, in
    wrapping 64-bit arithmetic, rather than drawn from NumPy's generators,
    whose streams NumPy may change between versions."""
    state = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    state += np.uint64(TIE_SEED)
    state = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    state = (state ^ (state >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    state ^= state >> np.uint64(31)
    return (state >> np.uint64(64 - TIE_BITS)).astype(np.int64)


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
    """The path MILP's objective, ``T × (R × power units + W × excess hops +
    weighted rank) + tie``, all integers.

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

    Weighted ranks still tie when several pairs trade ranks in balance, so
    a last tier breaks what the three leave: each candidate's ``tie`` is an
    integer in ``[0, V)`` (:func:`_tie_draws`), and ``T`` is one more than the
    largest total tie, so the tier only orders routings the three tiers
    rank equal.  ``V`` is the largest power of two up to ``2 **``
    :data:`TIE_BITS` that keeps the objective within ``MAX_OBJECTIVE / 16``;
    it is 1 (no tier) where the three tiers alone reach that.

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
    # The three tiers stay below ``scale * (units.sum() + 1)``, the last
    # multiplies that by at most ``P * (V - 1) + 1``.
    room = (MAX_OBJECTIVE / 16.0 / (scale * (units.sum() + 1.0)) - 1.0) / len(first) + 1.0
    bits = min(TIE_BITS, max(int(room).bit_length() - 1, 0))
    tie = _tie_draws(len(hops)) >> (TIE_BITS - bits)
    spread = float(np.maximum.reduceat(tie, first).sum() + 1)
    return np.concatenate([spread * secondary + tie, spread * scale * units])


def _filter_candidates(
    candidates: Mapping[Pair, Sequence[Path]],
    forbidden_links: Optional[Iterable[Tuple[str, str]]],
    latency_bound: Optional[Mapping[Pair, float]],
    topology: Topology,
) -> Dict[Pair, List[Path]]:
    """Apply the stress-exclusion and latency-bound filters to candidates.

    A pair always keeps at least one candidate: when every candidate violates
    a filter, the least-violating one survives (fewest forbidden links, then
    lowest latency).  This mirrors the paper's pragmatic treatment — the
    constraints steer the computation but must not disconnect the network.
    """
    index = topology.index()
    forbidden = index.link_mask(forbidden_links) if forbidden_links else None
    filtered: Dict[Pair, List[Path]] = {}
    for pair, paths in candidates.items():
        if not paths:
            raise InfeasibleError(f"pair {pair} has no candidate paths")
        kept = list(paths)
        if forbidden is not None:
            crossed = [int(forbidden[index.compile_path(path).link_indices].sum()) for path in kept]
            if min(crossed) == 0:
                kept = [path for path, count in zip(kept, crossed, strict=True) if count == 0]
            else:
                kept = [kept[crossed.index(min(crossed))]]
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
    candidates = _filter_candidates(
        candidate_paths.for_pairs(pairs, k), forbidden_links, latency_bound, topology
    )

    # Variable layout: [z (a block of path selections per pair) | y (links,
    # index order) | x (nodes, index order)].
    index = topology.index()
    compiled = [index.compile_path(path) for pair in pairs for path in candidates[pair]]
    block = np.cumsum([0] + [len(candidates[pair]) for pair in pairs])
    num_paths = len(compiled)
    on_off = OnOffModel(topology, power_model, num_paths, fixed_on_nodes, fixed_on_links)
    y0, num_vars = on_off.y0, on_off.width
    # One entry per hop of every candidate: its path (a z column), pair, arc
    # and link.
    pair_of_path = np.repeat(np.arange(len(pairs)), np.diff(block))
    hop_path = np.repeat(np.arange(num_paths), [len(path.arc_indices) for path in compiled])
    hop_pair = pair_of_path[hop_path]
    hop_arc = np.concatenate([path.arc_indices for path in compiled])
    hop_link = np.concatenate([path.link_indices for path in compiled])
    demand = np.array([demands[pair] for pair in pairs])
    # Each (pair, link) some candidate of the pair crosses, and the rank of
    # its first hop among all of them.
    _, first_hop, crossing = np.unique(
        hop_pair * len(index.link_keys) + hop_link, return_index=True, return_inverse=True
    )
    crossing_row = np.argsort(np.argsort(first_hop))
    # An arc's capacity can bind only where the pairs with a candidate
    # across it could exceed it together (each counted once: a pair picks
    # one path).
    loaded = demand[hop_pair] > 0.0
    pair_arc = np.unique(hop_pair[loaded] * index.num_arcs + hop_arc[loaded])
    reach = np.bincount(
        pair_arc % index.num_arcs,
        weights=demand[pair_arc // index.num_arcs],
        minlength=index.num_arcs,
    )
    capacity = index.arc_capacity * utilisation_limit
    binds = reach > capacity
    bound = loaded & binds[hop_arc]

    # Scale by the largest capacity to keep coefficients well conditioned.
    scale = float(index.arc_capacity.max())
    rows = on_off.rows
    families = (
        # (a) Each pair selects exactly one candidate path.
        rows(len(pairs), (pair_of_path, np.arange(num_paths), 1.0)),
        # (b) Arc capacity coupled to link activation, on the arcs where it
        #     can bind: sum_p d_p z_{p,j∋arc} - C_arc * sm * y_link <= 0.
        #     On any other arc (c) implies it, relaxation included: the left
        #     side is at most sum_p d_p * y_link <= C_arc * sm * y_link.
        rows(
            int(binds.sum()),
            (np.arange(binds.sum()), y0 + index.arc_link[binds], -capacity[binds] / scale),
            (
                (np.cumsum(binds) - 1)[hop_arc[bound]],
                hop_path[bound],
                demand[hop_pair[bound]] / scale,
            ),
        ),
        # (c) Connectivity coupling: a pair's selected path activates its
        #     links, sum_{j of p, l in j} z_{p,j} <= y_l, one row for each
        #     (p, l) some candidate of p crosses, in the order of first hops
        #     (a path is simple, so a row holds each candidate once).
        #     A pair picks one path, so the integer solutions are those of
        #     one row per hop (z_{p,j} <= y_l); the relaxation is tighter.
        rows(
            len(first_hop),
            (crossing_row[crossing], hop_path, 1.0),
            (np.arange(len(first_hop)), y0 + hop_link[np.sort(first_hop)], -1.0),
        ),
        # (d), (e) Constraints (1) and (3) of the on/off half.
        *on_off.coupling,
    )
    matrix = on_off.stack(families)
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
