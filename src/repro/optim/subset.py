"""The switch-off search shared by the subset heuristics.

The flow LP minimises total flow, so a feasible answer comes with a sparse
routing of the whole matrix, the *witness flow*.  An element on which the
witness puts exactly zero load can go without a solver run: the witness
restricted to the smaller arc set is the same feasible point.  Zero load is
not enough on its own — a demand below the solver's tolerances (the paper's
1 bit/s ε flows) may be routed as no flow at all — so the combinatorial
connectivity check the LP itself starts with is run on every candidate.

A candidate that does carry witness flow costs an LP, and consecutive
candidates differ in a handful of arcs: one search holds one
:class:`~repro.routing.mcf.FlowSession` — the LP assembled once over the
starting sets, a candidate's arcs switched off by column bounds, each
re-solve started from the basis of the last.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple, Union

from ..obs import metrics, trace
from ..routing.mcf import FlowSession, demands_connected
from ..routing.ospf import ospf_invcap_routing
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..traffic.matrix import TrafficMatrix

LinkKey = Tuple[str, str]

_CHECKS = metrics.counter(
    "repro_subset_checks_total", "Switch-off candidates of the subset search, by what answered"
)


def protected_nodes(topology: Topology, demands: TrafficMatrix) -> Set[str]:
    """Nodes that are never candidates: always-on devices and endpoints."""
    protected = {name for name in topology.nodes() if topology.node(name).always_powered}
    return protected | set(demands.nodes())


def route_on_subset(
    topology: Topology,
    demands: TrafficMatrix,
    active_nodes: Set[str],
    active_links: Set[LinkKey],
    name: str,
) -> Optional[RoutingTable]:
    """Inverse-capacity shortest paths on the active subgraph for every pair
    with demand (``None`` when there is none).  A pair without demand keeps
    no element on, so it may have no path left."""
    routed = [pair for pair, demand in demands.items() if demand > 0.0]
    if not routed:
        return None
    subgraph = topology.subgraph(active_nodes, active_links)
    return ospf_invcap_routing(subgraph, pairs=routed, name=name)


def shrink_active_subset(
    topology: Topology,
    demands: TrafficMatrix,
    utilisation_limit: float,
    active_nodes: Iterable[str],
    active_links: Iterable[LinkKey],
    candidates: Iterable[Union[str, LinkKey]],
) -> Tuple[Set[str], Set[LinkKey]]:
    """Switch off, in order, every candidate that *demands* can do without.

    A candidate is a node name (it leaves with its active links) or a link key
    (skipped when already off); only one that carries witness flow costs an
    LP.  Returns the ``(active_nodes, active_links)`` that remain.

    The sets returned do not depend on which optimal flow a warm re-solve
    lands on: a different witness moves work between the solver and the
    witness rule, and both give the true answer to "does the demand still
    fit?" — a witness skip exhibits a feasible flow, an LP decides.
    """
    nodes, links = set(active_nodes), set(active_links)
    witness: Optional[Dict[LinkKey, float]] = None
    # Opened at the first candidate that reaches the solver, over the sets as
    # they are then (every later candidate lies within them), and dropped
    # with this call: nothing is carried across intervals, threads or forks.
    session: Optional[FlowSession] = None
    answers = dict.fromkeys(("witness", "disconnected", "lp_feasible", "lp_infeasible"), 0)
    for element in candidates:
        if isinstance(element, tuple):
            if element not in links:
                continue
            fewer_nodes, dropped = nodes, {element}
        else:
            fewer_nodes = nodes - {element}
            dropped = {key for key in links if element in key}
        fewer_links = links - dropped
        if not demands_connected(topology, demands, fewer_nodes, fewer_links):
            answer = "disconnected"
        elif witness is not None and not any(
            # repro: allow[REP104] any() of the loads; order cannot leak
            witness.get(arc) for (u, v) in dropped for arc in ((u, v), (v, u))
        ):
            answer = "witness"
        else:
            if session is None:
                session = FlowSession(topology, demands, utilisation_limit, nodes, links)
            result = session.solve(fewer_nodes, fewer_links)
            answer = "lp_feasible" if result.feasible else "lp_infeasible"
            if result.feasible:
                witness = result.arc_loads
        answers[answer] += 1
        if answer in ("witness", "lp_feasible"):
            nodes, links = fewer_nodes, fewer_links

    for answer, count in answers.items():
        _CHECKS.labels(answer=answer).inc(count)
    enclosing = trace.current_span()
    if enclosing is not None:
        enclosing.set(
            lp_solves=answers["lp_feasible"] + answers["lp_infeasible"],
            lp_iterations=session.simplex_iterations if session is not None else 0,
            witness_skips=answers["witness"],
        )
    return nodes, links
