"""GreenTE-style power-aware traffic-engineering heuristic (Zhang et al. [41]).

GreenTE restricts every origin-destination pair to its k shortest paths and
searches for the assignment that minimises the power of the elements left
carrying traffic.  The reproduction implements the heuristic as a greedy
path packer:

1. sort pairs by descending demand (big flows are placed first, as in
   bin-packing heuristics),
2. for each pair, choose among its candidate paths the one that activates
   the least additional power while fitting within the residual capacities,
3. break ties in favour of already-active elements and shorter paths.

The result is traffic-aware (unlike the stress-factor computation) and fast,
which is why the paper uses it as the *REsPoNse-heuristic* variant for
computing on-demand paths on large topologies.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..exceptions import InfeasibleError
from ..power.model import PowerModel
from ..routing.ksp import CandidatePaths
from ..routing.paths import Path, RoutingTable
from ..topology.base import Topology, link_key
from ..traffic.matrix import Pair, TrafficMatrix
from .solution import EnergyAwareSolution, element_power_coefficients

#: Default number of candidate paths per pair (GreenTE's k).
DEFAULT_K = 4


def greente_heuristic(
    topology: Topology,
    power_model: PowerModel,
    demands: TrafficMatrix,
    k: int = DEFAULT_K,
    utilisation_limit: float = 1.0,
    fixed_on_nodes: Optional[Iterable[str]] = None,
    fixed_on_links: Optional[Iterable[Tuple[str, str]]] = None,
    allow_overload: bool = False,
    ordering: str = "demand",
) -> EnergyAwareSolution:
    """Greedy k-shortest-path power-aware traffic engineering.

    Args:
        topology: The physical topology.
        power_model: Power coefficients used to cost element activation.
        demands: Traffic matrix to place.
        k: Candidate paths per pair.
        utilisation_limit: Safety margin on every arc's capacity.
        fixed_on_nodes: Elements considered already powered (zero marginal
            cost), e.g. the always-on set.
        fixed_on_links: Links considered already active.
        allow_overload: When ``True``, a pair whose demand fits on no
            candidate path is placed on the least-loaded candidate anyway
            instead of raising :class:`InfeasibleError`.
        ordering: ``"demand"`` places the biggest flows first (better
            packing); ``"stable"`` places pairs in a fixed lexicographic
            order, which makes the chosen configuration insensitive to small
            demand fluctuations — the choice used when replaying traces to
            count configuration changes.

    Returns:
        An :class:`EnergyAwareSolution` with one chosen path per pair.
    """
    if ordering not in ("demand", "stable"):
        raise ValueError(f"ordering must be 'demand' or 'stable', got {ordering!r}")
    pairs = demands.pairs()
    paths_of = CandidatePaths.shared(topology).for_pairs(pairs, k)
    node_power, link_power = element_power_coefficients(topology, power_model)

    active_nodes: Set[str] = set(fixed_on_nodes or ())
    active_nodes |= {n for n in topology.nodes() if topology.node(n).always_powered}
    active_links: Set[Tuple[str, str]] = {
        link_key(u, v) for (u, v) in (fixed_on_links or ())
    }
    index = topology.index()
    residual = index.arc_capacity * utilisation_limit

    def marginal_power(path: Path) -> float:
        cost = 0.0
        for node in path.nodes:
            if node not in active_nodes:
                cost += node_power[node]
        for key in path.link_keys():
            if key not in active_links:
                cost += link_power[key]
        return cost

    def headroom(path: Path) -> float:
        # Every arc's residual is >= x exactly when the smallest one is.
        return residual[index.compile_path(path).arc_indices].min()

    chosen: Dict[Pair, Path] = {}
    if ordering == "demand":
        ordered = sorted(pairs, key=lambda pair: demands[pair], reverse=True)
    else:
        ordered = sorted(pairs)
    for pair in ordered:
        demand = demands[pair]
        candidates = paths_of[pair]
        if not candidates:
            raise InfeasibleError(f"pair {pair} has no candidate paths")
        feasible = [path for path in candidates if headroom(path) >= demand - 1e-9]
        if not feasible:
            if not allow_overload:
                raise InfeasibleError(
                    f"demand of pair {pair} ({demand:.3g} bps) fits on no candidate path"
                )
            feasible = [max(candidates, key=headroom)]
        best = min(
            feasible,
            key=lambda path: (marginal_power(path), path.num_hops, path.latency(topology)),
        )
        chosen[pair] = best
        for node in best.nodes:
            active_nodes.add(node)
        for key in best.link_keys():
            active_links.add(key)
        residual[index.compile_path(best).arc_indices] -= demand

    routing = RoutingTable(chosen, name="greente")
    return EnergyAwareSolution.of(
        topology, power_model, active_nodes, active_links, routing, "greente-heuristic"
    )
