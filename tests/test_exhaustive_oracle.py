"""The offline solvers against an exhaustive oracle on small topologies.

The oracle enumerates the active subsets of a topology in increasing power
and returns the power of the first one the demands fit on.  A subset is a
set of links with exactly their endpoints powered on: a node with no active
link carries nothing and constraint (3) switches it off, so any other node
set costs more and fits nothing more.  "Fits" is asked two ways:

* **single-path** — every pair (zero demands included) gets one simple
  path within the subset, with every arc's load within its capacity: the
  problem the arc MILP (binary flows) and the path MILP solve;
* **splittable** — one multi-commodity-flow LP, assembled here and solved by
  SciPy's ``linprog``, routes the demands within capacity: what the subset
  searches under ``greedy`` and ``lp-relax`` check, and a relaxation of
  every scheme's problem.

Asserted per instance: the arc MILP, and the path MILP with every simple
path a candidate, equal the single-path optimum within the MILPs' 1e-4
relative gap; ``greedy``, ``lp-relax`` and ``greente`` are at or above the
splittable optimum.  One named case pins where GreenTE misses a single-path
routing the oracle finds (a strict xfail, so a fix flips it).
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.exceptions import InfeasibleError
from repro.optim import (
    greedy_minimum_subset,
    greente_heuristic,
    lp_relaxation_with_rounding,
    solve_arc_milp,
    solve_path_milp,
)
from repro.power import CiscoRouterPowerModel, network_power
from repro.routing.paths import link_loads
from repro.topology import build_example
from repro.topology.base import Topology
from repro.traffic import TrafficMatrix
from repro.units import mbps

#: How far above the single-path optimum a MILP's power may land: float
#: rounding only.  The MILPs' relative gap is 0 (``routing.highs.milp_options``),
#: and the arc MILP's absolute gap (1e-6, on costs over their largest) is far
#: below a 0.1 W step.
MIP_GAP = 1e-12


def simple_paths(topology, origin, destination):
    """Every simple path from *origin* to *destination*, as lists of its
    directed arcs."""
    found = []

    def extend(walk):
        if walk[-1] == destination:
            arcs = list(zip(walk, walk[1:]))
            found.append(arcs)
            return
        for neighbour in sorted(topology.neighbors(walk[-1])):
            if neighbour not in walk:
                extend(walk + [neighbour])

    extend([origin])
    return found


def link_of(arc):
    return tuple(sorted(arc))


def single_path_fits(topology, demands, paths, links):
    """Whether every pair has a simple path over *links*, loads within
    capacity (a backtracking search, biggest demands first)."""
    pairs = sorted(demands.pairs(), key=lambda pair: -demands[pair])
    usable = {
        pair: [arcs for arcs in paths[pair] if all(link_of(arc) in links for arc in arcs)]
        for pair in pairs
    }
    residual = {arc.key: arc.capacity_bps for arc in topology.arcs()}

    def place(position):
        if position == len(pairs):
            return True
        demand = demands[pairs[position]]
        for arcs in usable[pairs[position]]:
            if all(residual[arc] >= demand for arc in arcs):
                for arc in arcs:
                    residual[arc] -= demand
                if place(position + 1):
                    return True
                for arc in arcs:
                    residual[arc] += demand
        return False

    return place(0)


def joined(links, origin, destination):
    """Whether *links* join the two nodes."""
    reached, frontier = {origin}, [origin]
    while frontier:
        name = frontier.pop()
        for key in links:
            if name in key:
                other = key[1] if key[0] == name else key[0]
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
    return destination in reached


def splittable_fits(topology, demands, links):
    """Whether one multi-commodity-flow LP routes *demands* over the arcs of
    *links* within capacity (per-pair commodities, bps scaled by the largest
    capacity).  Connectivity is asked first: a 1 bit/s demand, so scaled,
    falls below the LP's tolerances."""
    pairs = [pair for pair in demands.pairs() if demands[pair] > 0.0]
    if not all(joined(links, *pair) for pair in pairs):
        return False
    arcs = [arc for arc in topology.arcs() if link_of(arc.key) in links]
    nodes = sorted({name for arc in arcs for name in arc.key})
    scale = max(arc.capacity_bps for arc in arcs)
    row_of = {name: position for position, name in enumerate(nodes)}
    a_eq = np.zeros((len(pairs) * len(nodes), len(pairs) * len(arcs)))
    b_eq = np.zeros(len(pairs) * len(nodes))
    a_ub = np.zeros((len(arcs), len(pairs) * len(arcs)))
    for p, (origin, destination) in enumerate(pairs):
        for a, arc in enumerate(arcs):
            column = p * len(arcs) + a
            a_eq[p * len(nodes) + row_of[arc.src], column] += 1.0
            a_eq[p * len(nodes) + row_of[arc.dst], column] -= 1.0
            a_ub[a, column] = 1.0
        b_eq[p * len(nodes) + row_of[origin]] = demands[(origin, destination)] / scale
        b_eq[p * len(nodes) + row_of[destination]] = -demands[(origin, destination)] / scale
    b_ub = np.array([arc.capacity_bps / scale for arc in arcs])
    result = linprog(np.ones(a_ub.shape[1]), a_ub, b_ub, a_eq, b_eq, method="highs")
    return result.status == 0


def oracle(topology, model, demands):
    """``(single-path optimum, splittable optimum)`` in watts; ``None`` for
    a kind that fits on no subset."""
    paths = {pair: simple_paths(topology, *pair) for pair in demands.pairs()}
    subsets = []
    for size in range(topology.num_links + 1):
        for links in itertools.combinations(topology.link_keys(), size):
            nodes = {name for key in links for name in key}
            subsets.append((network_power(topology, model, nodes, links).total_w, links))
    subsets.sort()
    single = splittable = None
    for power, links in subsets:
        links = set(links)
        if splittable is None and splittable_fits(topology, demands, links):
            splittable = power
        if single_path_fits(topology, demands, paths, links):
            single = power
            break
    return single, splittable


def triangle(chord_bps=mbps(100)):
    """``a-b-c`` at 100 Mb/s and the chord ``a-c`` at *chord_bps*: at 10
    Gb/s its ports cost more than the two others' together, so only the
    chassis (constraint (1)) make it the cheaper way from ``a`` to ``c``."""
    topology = Topology("triangle")
    for name in "abc":
        topology.add_node(name)
    topology.add_link("a", "b", capacity_bps=mbps(100))
    topology.add_link("b", "c", capacity_bps=mbps(100))
    topology.add_link("a", "c", capacity_bps=chord_bps)
    return topology


def diamond():
    topology = Topology("diamond")
    for name in "abcd":
        topology.add_node(name)
    for u, v in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]:
        topology.add_link(u, v, capacity_bps=mbps(100))
    return topology


def ring():
    topology = Topology("ring5")
    names = [f"r{position}" for position in range(5)]
    for name in names:
        topology.add_node(name)
    for u, v in zip(names, names[1:] + names[:1]):
        topology.add_link(u, v, capacity_bps=mbps(100))
    return topology


def parallel():
    """Three sources behind a hub, three 100 Mb/s two-hop routes from the
    hub to ``t``: 70 + 70 + 50 Mb/s toward ``t`` fit on two routes split,
    and on three unsplit."""
    topology = Topology("parallel")
    for name in ["a", "b", "c", "h", "x", "y", "z", "t"]:
        topology.add_node(name)
    for source in "abc":
        topology.add_link(source, "h", capacity_bps=mbps(1000))
    for middle in "xyz":
        topology.add_link("h", middle, capacity_bps=mbps(100))
        topology.add_link(middle, "t", capacity_bps=mbps(100))
    return topology


INSTANCES = {
    "triangle-eps": (triangle, TrafficMatrix.epsilon([("a", "b"), ("b", "c")])),
    "triangle-load": (
        triangle,
        TrafficMatrix({("a", "b"): mbps(60), ("a", "c"): mbps(60), ("c", "b"): mbps(30)}),
    ),
    "triangle-chord": (lambda: triangle(chord_bps=10e9), TrafficMatrix.epsilon([("a", "c")])),
    "diamond-eps": (diamond, TrafficMatrix.epsilon([("a", "d"), ("b", "c")])),
    "diamond-split": (diamond, TrafficMatrix({("a", "d"): mbps(70), ("b", "c"): mbps(50)})),
    "ring-eps": (ring, TrafficMatrix.epsilon([("r0", "r2"), ("r3", "r1")])),
    "ring-load": (
        ring,
        TrafficMatrix({("r0", "r2"): mbps(60), ("r1", "r3"): mbps(60), ("r4", "r1"): mbps(30)}),
    ),
    "click-eps": (
        lambda: build_example(include_b=False),
        TrafficMatrix.epsilon([("A", "K"), ("C", "K")]),
    ),
    "parallel-split": (
        parallel,
        TrafficMatrix({("a", "t"): mbps(70), ("b", "t"): mbps(70), ("c", "t"): mbps(50)}),
    ),
    # The arc MILP's optimal flow for (E, K) carries a circulation through
    # E (its hop penalty is below HiGHS's tolerances); the walk must drop it.
    "click-circulation": (
        lambda: build_example(include_b=False),
        TrafficMatrix({(u, v): mbps(3) for u in "ACE" for v in "HK"}),
    ),
    "click-load": (
        lambda: build_example(include_b=False),
        TrafficMatrix({("A", "K"): mbps(6), ("C", "K"): mbps(6), ("D", "F"): mbps(1)}),
    ),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_solvers_against_the_exhaustive_optimum(name):
    build, demands = INSTANCES[name]
    topology, model = build(), CiscoRouterPowerModel()
    single, splittable = oracle(topology, model, demands)
    assert single is not None and splittable is not None and splittable <= single

    def at_the_single_path_optimum(power):
        return single * (1 - 1e-12) <= power <= single * (1 + MIP_GAP)

    assert at_the_single_path_optimum(solve_arc_milp(topology, model, demands).power_w)
    every_path = max(len(simple_paths(topology, *pair)) for pair in demands.pairs())
    path_milp = solve_path_milp(topology, model, demands, k=every_path)
    assert at_the_single_path_optimum(path_milp.power_w)

    heuristics = [
        greedy_minimum_subset(topology, model, demands),
        lp_relaxation_with_rounding(topology, model, demands),
        greente_heuristic(topology, model, demands),
    ]
    for solution in heuristics:
        assert solution.power_w >= splittable * (1 - 1e-12), solution.solver


def test_the_arc_milp_bounds_single_path_schemes_only():
    """Binary flows make the arc MILP the single-path optimum: where the
    demands pack onto fewer routes split than unsplit, ``greedy`` (which
    needs only the splittable LP to fit) lands below it."""
    build, demands = INSTANCES["parallel-split"]
    topology, model = build(), CiscoRouterPowerModel()
    single, splittable = oracle(topology, model, demands)
    assert splittable < single
    assert solve_arc_milp(topology, model, demands).power_w == single
    assert greedy_minimum_subset(topology, model, demands).power_w == splittable


#: ``ring-load`` with r4→r1 raised from 30 to 50 Mb/s: a single-path routing
#: within capacity exists (3 600 W), and GreenTE's greedy packing misses it.
RING_GREENTE_MISSES = TrafficMatrix(
    {("r0", "r2"): mbps(60), ("r1", "r3"): mbps(60), ("r4", "r1"): mbps(50)}
)


def test_greente_overloads_the_ring_a_single_path_routing_fits():
    """Every replay runs GreenTE with ``allow_overload=True``: here that
    answer is 120 W under the optimum because it runs an arc at 110 %."""
    topology, model = ring(), CiscoRouterPowerModel()
    assert oracle(topology, model, RING_GREENTE_MISSES) == (3600.0, 3600.0)
    overloaded = greente_heuristic(topology, model, RING_GREENTE_MISSES, allow_overload=True)
    loads = link_loads(topology, overloaded.routing, RING_GREENTE_MISSES)
    assert overloaded.power_w == 3480.0
    assert topology.index().max_utilisation(loads) == pytest.approx(1.1)


@pytest.mark.xfail(
    strict=True,
    raises=InfeasibleError,
    reason="GreenTE places pairs greedily, largest first, and finds no room for r4->r1",
)
def test_greente_places_every_pair_within_capacity_when_a_single_path_routing_exists():
    topology, model = ring(), CiscoRouterPowerModel()
    solution = greente_heuristic(topology, model, RING_GREENTE_MISSES)
    loads = link_loads(topology, solution.routing, RING_GREENTE_MISSES)
    assert topology.index().max_utilisation(loads) <= 1.0
