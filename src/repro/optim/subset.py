"""The switch-off search shared by the subset heuristics.

The flow LP minimises total flow, so a feasible answer comes with a sparse
routing of the whole matrix, the *witness flow*.  An element on which the
witness puts exactly zero load can go without a solver run: the witness
restricted to the smaller arc set is the same feasible point.  Zero load is
not enough on its own — a demand below the solver's tolerances (the paper's
1 bit/s ε flows) may be routed as no flow at all — so the combinatorial
connectivity check is run on every candidate, over the one arc mask the
LP then gets.

A candidate that does carry witness flow may still be refused without a
solver: when a node set has more demand leaving it than capacity on its
active arcs out, no flow exists.  The session keeps a pool of such cuts —
every demand endpoint's from the start, and the one each infeasible LP's
dual ray points at — and checks the candidate's arcs against all of them
in two small mat-vecs.  A cut only ever says "infeasible", and only by
more than the LP's tolerances could absorb; anything closer goes to the
LP.

The mirror image says "feasible" without a solver.  The witness is kept
per origin, and a candidate whose arcs carry some of it may still go when
each origin's flow on them can move onto fewest-hop detours with slack —
per origin, in and out of a node paired in arc order, so every origin
keeps its conservation.  The session's repair does that, and keeps a
margin of the order of the solver's tolerance on every arc it loads, so
the repaired flow is one the LP accepts.  Nor does the witness start
empty: before the first candidate every demand, largest first, is packed
onto a fewest-hop path with the same slack, and if all fit that flow is
the starting witness.  So a candidate is answered by the first of: the
connectivity walk (``disconnected``), the witness (``witness``), the cut
pool (``cut``), a repair (``repair``), an LP (``lp_feasible`` /
``lp_infeasible``).

Consecutive candidates differ in a handful of arcs: one search holds one
:class:`~repro.routing.mcf.FlowSession` — the LP of the whole topology, a
candidate's arcs switched off by column bounds, each re-solve started from
the basis of the last — and reads from it only a flow (seeded, repaired or
the LP's), or "infeasible".
The active subset is a pair of masks over the topology's index (a
candidate's entries are flipped, and flipped back on a refusal); names
appear only at the boundary.  A caller that runs one search per interval
hands the same session down each time: model, bases and cut pool outlive
the interval and die with the session, every candidate is still decided
anew.  The candidate order is fixed by element power, so an interval asks
many of the last interval's questions again at the same arcs: a cut learned
then refuses them again, and an LP starts from the basis its last solve
ended with.  On the benchmark harness's ``timeline_replay`` spec the cuts
refuse 60 candidates, the seed starts 12 of the 16 searches and repairs
answer 39 candidates, which leaves 19 LPs (4 from a kept basis) where there
were 68 before the seed and the repair, 128 before the cuts; 458 simplex
iterations where there were 595 and 963.
"""

from __future__ import annotations

from typing import Collection, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError, UnknownArcError
from ..obs import metrics, trace
from ..routing.mcf import FlowSession
from ..routing.ospf import ospf_invcap_routing
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..topology.index import TopologyIndex
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
    """Inverse-capacity shortest paths over the active subset's arcs for every
    pair with demand (``None`` when there is none).  A pair without demand
    keeps no element on, so it may have no path left."""
    routed = [pair for pair, demand in demands.items() if demand > 0.0]
    if not routed:
        return None
    index = topology.index()
    arc_on = index.arc_mask(index.node_mask(active_nodes), index.link_mask(active_links))
    return ospf_invcap_routing(topology, pairs=routed, name=name, arc_on=arc_on)


def _candidate(
    index: TopologyIndex, element: Union[str, LinkKey]
) -> Tuple[Union[str, LinkKey], Optional[int], List[int]]:
    """``(key, node, links)`` of a candidate: its name or its link key as
    the index orients it, its node index (``None`` for a link) and the links
    it takes with it."""
    if isinstance(element, tuple):
        u, v = element
        key = (u, v) if u <= v else (v, u)
        if key not in index.link_index:
            raise UnknownArcError(u, v)
        return key, None, [index.link_index[key]]
    node = index.node_of(element)
    return element, node, index.node_links[node]


def shrink_active_subset(
    topology: Topology,
    demands: TrafficMatrix,
    utilisation_limit: float,
    active_nodes: Collection[str],
    active_links: Collection[LinkKey],
    candidates: Iterable[Union[str, LinkKey]],
    session: Optional[FlowSession] = None,
) -> Tuple[Set[str], Set[LinkKey]]:
    """Switch off, in order, every candidate that *demands* can do without.

    A candidate is a node name (it leaves with its active links) or a link key
    (skipped when already off); only one that carries witness flow, that no
    cut refuses and whose flow no repair moves costs an LP, put to
    *session* — one of *topology* at
    *utilisation_limit*, which is retargeted at *demands* — or to a session
    of the search's own.  Returns the ``(active_nodes, active_links)`` that
    remain.

    The sets returned do not depend on which optimal flow a warm re-solve
    lands on, from whichever basis it starts, nor on which cuts the pool
    holds: a different witness or pool moves work between the solver and
    the solver-free rules, and all give the true answer to "does the demand
    still fit?" — a witness skip, a seed or a repair exhibits a feasible
    flow, a cut proves there is none, an LP decides.

    Raises:
        UnknownNodeError: If a node candidate is not in *topology*.
        UnknownArcError: If a link candidate, in either orientation, is not
            a link of *topology*.
        ConfigurationError: If *session* is of another topology object or
            another utilisation limit.
    """
    index = topology.index()
    node_on, link_on = index.node_mask(active_nodes), index.link_mask(active_links)
    if session is None:
        session = FlowSession(topology, demands, utilisation_limit, active_nodes, active_links)
    elif session.topology is not topology:
        raise ConfigurationError(
            f"the flow session routes over topology {session.topology.name!r}, another object "
            f"than the search's topology {topology.name!r}"
        )
    elif session.utilisation_limit != utilisation_limit:
        raise ConfigurationError(
            f"the flow session is at utilisation limit {session.utilisation_limit!r}, "
            f"the search at {utilisation_limit!r}"
        )
    else:
        session.retarget(demands)
    models_before, iterations_before = session.models_built, session.simplex_iterations
    restored_before, learned_before = session.bases_restored, session.cuts_learned
    witness = session.seed(index.arc_mask(node_on, link_on))
    seeded = witness is not None
    answers = dict.fromkeys(
        ("witness", "disconnected", "cut", "repair", "lp_feasible", "lp_infeasible"), 0
    )
    for element in candidates:
        key, node, dropped = _candidate(index, element)
        dropped = [link for link in dropped if link_on[link]]
        if node is None and not dropped:
            continue  # a link that is already off
        node_was_on = node is not None and bool(node_on[node])
        if node_was_on:
            node_on[node] = False
        link_on[dropped] = False
        arc_on = index.arc_mask(node_on, link_on)
        arcs = index.link_arcs[dropped].ravel()
        if not session.connected(arc_on):
            answer = "disconnected"
        elif witness is not None and not witness[:, arcs].any():
            answer = "witness"
        elif session.cut_refuses(arc_on):
            answer = "cut"
        elif witness is not None and (
            repaired := session.repair(witness, arc_on, arcs, node)
        ) is not None:
            answer, witness = "repair", repaired
        else:
            flows = session.witness(arc_on, key)
            answer = "lp_infeasible" if flows is None else "lp_feasible"
            if flows is not None:
                witness = flows
        answers[answer] += 1
        if answer not in ("witness", "repair", "lp_feasible"):
            link_on[dropped] = True
            if node_was_on:
                node_on[node] = True

    for answer, count in answers.items():
        _CHECKS.labels(answer=answer).inc(count)
    enclosing = trace.current_span()
    if enclosing is not None:
        enclosing.set(
            lp_solves=answers["lp_feasible"] + answers["lp_infeasible"],
            lp_iterations=session.simplex_iterations - iterations_before,
            lp_models=session.models_built - models_before,
            lp_bases_restored=session.bases_restored - restored_before,
            witness_skips=answers["witness"],
            witness_seeded=seeded,
            cut_refusals=answers["cut"],
            repairs=answers["repair"],
            cuts_learned=session.cuts_learned - learned_before,
        )
    nodes = {name for name, on in zip(index.node_names, node_on.tolist(), strict=True) if on}
    links = {key for key, on in zip(index.link_keys, link_on.tolist(), strict=True) if on}
    return nodes, links
