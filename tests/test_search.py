"""Differential battery: the path searches on the index against networkx.

``repro.topology.search`` ports networkx 3.6.1's path searches onto
``Topology.index()``; networkx stays here (``nx_reference``) as the
reference, and every comparison is ``==``, order included:

* Yen's k-shortest (``CandidatePaths``, fresh and grown providers) against
  ``shortest_simple_paths`` at k in {1, 3, 5, 8};
* OSPF for invcap / latency / hops against ``single_source_dijkstra_path``;
* ECMP against ``all_shortest_paths``;
* failover against ``shortest_path`` under the penalised weight function;
* ``Topology.shortest_path`` against ``shortest_path``;
* ``route_on_subset`` on masks against the same routing on a
  ``Topology.subgraph`` copy, for random active subsets;

on the nine shipped topologies and on Hypothesis graphs whose weights tie
(a handful of capacities and latencies, parallel equal-hop routes).  Then the
one error contract of every search entry (an unknown endpoint is
``UnknownNodeError``, an unreachable pair ``PathNotFoundError``) and the
search counts of one replay, which repeat exactly.
"""

import pathlib
import random
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.failover import DISJOINTNESS_PENALTY, compute_failover
from repro.exceptions import PathNotFoundError, UnknownNodeError
from repro.obs import metrics
from repro.optim.subset import route_on_subset
from repro.routing import Path, RoutingTable, equal_cost_paths, ospf_invcap_routing
from repro.routing.ksp import CandidatePaths, clear_candidate_paths
from repro.scenario.engine import run_scenario
from repro.scenario.spec import TopologySpec
from repro.topology import Topology, link_key
from repro.traffic import TrafficMatrix
from repro.units import gbps

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "harness"))

from nx_reference import k_shortest_paths, to_networkx  # noqa: E402
from test_calibration import SHIPPED_TOPOLOGIES  # noqa: E402, I001
from workloads import replay_scenario  # noqa: E402

KS = (1, 3, 5, 8)
WEIGHTS = {"invcap": "invcap", "latency": "latency", "hops": None}


def shipped(name):
    return TopologySpec(name, params=SHIPPED_TOPOLOGIES[name]).build()


def sampled_pairs(topology, count, seed=7):
    """A seeded sample of ordered node pairs (both directions of each)."""
    rng = random.Random(seed)
    nodes = sorted(topology.nodes())
    pairs = []
    while len(pairs) < count:
        origin, destination = rng.sample(nodes, 2)
        pairs += [(origin, destination), (destination, origin)]
    return pairs


def outcome(call, *args, **kwargs):
    """A call's value, or the type of the library error it raised."""
    try:
        return call(*args, **kwargs)
    except (PathNotFoundError, UnknownNodeError) as error:
        return type(error)


def nx_ospf(topology, weight):
    """Every (origin, destination) path networkx's single-source search finds."""
    graph = to_networkx(topology)
    return {
        (origin, destination): Path.of(nodes)
        for origin in topology.nodes()
        for destination, nodes in nx.single_source_dijkstra_path(
            graph, origin, weight=WEIGHTS[weight]
        ).items()
        if destination != origin
    }


def nx_failover(topology, tables, pairs):
    """``compute_failover`` as it was written over networkx."""
    graph = to_networkx(topology)
    failover = {}
    for origin, destination in pairs:
        used = set()
        for table in tables:
            path = table.get(origin, destination)
            if path is not None:
                used.update(path.link_keys())

        def penalised(u, v, data, used=used):
            if link_key(u, v) in used:
                return data["invcap"] * DISJOINTNESS_PENALTY
            return data["invcap"]

        try:
            nodes = nx.shortest_path(graph, origin, destination, weight=penalised)
        except nx.NetworkXNoPath:
            continue
        failover[(origin, destination)] = Path.of(nodes)
    return failover


def nx_path(graph, origin, destination, weight):
    try:
        return nx.shortest_path(graph, origin, destination, weight=weight)
    except nx.NetworkXNoPath:
        return PathNotFoundError


def nx_equal_cost(graph, origin, destination):
    try:
        return [Path.of(nodes) for nodes in nx.all_shortest_paths(graph, origin, destination)]
    except nx.NetworkXNoPath:
        return PathNotFoundError


def assert_all_searches_match(topology, pairs, ks=KS):
    """Every search entry ``==`` its networkx reference on *pairs*."""
    graph = to_networkx(topology)
    reachable = [pair for pair in pairs if nx.has_path(graph, *pair)]
    longest = {pair: k_shortest_paths(topology, *pair, max(ks)) for pair in reachable}
    grown = CandidatePaths(topology)
    for k in ks:
        expected = {pair: paths[:k] for pair, paths in longest.items()}
        assert CandidatePaths(topology).for_pairs(reachable, k) == expected, k
        assert grown.for_pairs(reachable, k) == expected, k
    for pair in set(pairs) - set(reachable):
        assert outcome(CandidatePaths(topology).for_pairs, [pair], 3) is PathNotFoundError

    for weight in WEIGHTS:
        expected = nx_ospf(topology, weight)
        routed = [pair for pair in pairs if pair in expected]
        table = ospf_invcap_routing(topology, pairs=routed, weight=weight)
        assert dict(table.items()) == {pair: expected[pair] for pair in routed}, weight

    for origin, destination in pairs:
        assert outcome(equal_cost_paths, topology, origin, destination) == nx_equal_cost(
            graph, origin, destination
        )
        for weight in ("invcap", "latency"):
            assert outcome(topology.shortest_path, origin, destination, weight) == nx_path(
                graph, origin, destination, weight
            )

    # The failover of every pair against its OSPF path and second-shortest path.
    existing = [
        RoutingTable({pair: longest[pair][0] for pair in reachable}),
        RoutingTable({pair: longest[pair][1] for pair in reachable if len(longest[pair]) > 1}),
    ]
    assert dict(compute_failover(topology, existing, pairs).items()) == nx_failover(
        topology, existing, pairs
    )


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_searches_equal_networkx_on_shipped_topologies(name):
    topology = shipped(name)
    assert_all_searches_match(topology, sampled_pairs(topology, 40))


@st.composite
def tied_topologies(draw):
    """Small graphs whose path costs tie: two capacities, two latencies,
    nodes and links inserted in a drawn order (networkx breaks ties by
    insertion, never by name), some pairs disconnected."""
    size = draw(st.integers(min_value=3, max_value=9))
    names = draw(st.permutations([f"n{i}" for i in range(size)]))
    candidates = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    links = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=18))
    topology = Topology("tied")
    for name in names:
        topology.add_node(name)
    for u, v in links:
        topology.add_link(
            u,
            v,
            capacity_bps=gbps(draw(st.sampled_from([1, 1, 2]))),
            reverse_capacity_bps=gbps(draw(st.sampled_from([1, 1, 2]))),
            latency_s=draw(st.sampled_from([0.001, 0.002])),
        )
    return topology


@settings(max_examples=100, deadline=None)
@given(tied_topologies())
def test_searches_equal_networkx_under_tied_weights(topology):
    nodes = topology.nodes()
    pairs = [(o, d) for o in nodes for d in nodes if o != d]
    assert_all_searches_match(topology, pairs, ks=(5,))


def test_ties_break_by_arc_insertion_not_by_name():
    """A square whose two routes tie: the route whose first arc was added
    first wins, whichever name sorts first."""
    for first, second in (("b", "c"), ("c", "b")):
        square = Topology("square")
        for name in ("a", first, second, "d"):
            square.add_node(name)
        for u, v in (("a", first), ("a", second), (first, "d"), (second, "d")):
            square.add_link(u, v, capacity_bps=gbps(1))
        expected = nx.shortest_path(to_networkx(square), "a", "d", weight="invcap")
        assert square.shortest_path("a", "d") == expected == ["a", first, "d"]
        assert ospf_invcap_routing(square, [("a", "d")]).get("a", "d").nodes == tuple(expected)
        assert [p.nodes for p in CandidatePaths(square).for_pairs([("a", "d")], 2)[("a", "d")]] == [
            tuple(p) for p in nx.shortest_simple_paths(to_networkx(square), "a", "d", "invcap")
        ]


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_route_on_subset_masks_equal_the_subgraph_copy(name):
    topology = shipped(name)
    rng = random.Random(name)
    nodes = topology.nodes()
    for _ in range(6):
        pairs = sampled_pairs(topology, 8, seed=rng.random())
        ends = {node for pair in pairs for node in pair}
        off = set(rng.sample(sorted(set(nodes) - ends), k=min(3, len(set(nodes) - ends))))
        active_nodes = set(nodes) - off
        active_links = set(rng.sample(topology.link_keys(), k=int(0.8 * topology.num_links)))
        demands = TrafficMatrix({pair: 1.0 for pair in pairs})
        copy = topology.subgraph(active_nodes, active_links)
        expected = outcome(ospf_invcap_routing, copy, pairs=pairs, name="subset")
        routed = outcome(route_on_subset, topology, demands, active_nodes, active_links, "subset")
        if expected is PathNotFoundError:
            assert routed is PathNotFoundError
        else:
            assert dict(routed.items()) == dict(expected.items())
            assert routed.name == expected.name


# --------------------------------------------------------------------- #
# One error contract for every search entry
# --------------------------------------------------------------------- #
def island():
    """``a - b`` and a lone ``z``."""
    topology = Topology("island")
    for name in "abz":
        topology.add_node(name)
    topology.add_link("a", "b", capacity_bps=gbps(1))
    return topology


SEARCH_ENTRIES = {
    "CandidatePaths.for_pairs": lambda t, o, d: CandidatePaths(t).for_pairs([(o, d)], 3),
    "ospf_invcap_routing": lambda t, o, d: ospf_invcap_routing(t, [(o, d)]),
    "ospf_invcap_routing[hops]": lambda t, o, d: ospf_invcap_routing(t, [(o, d)], weight="hops"),
    "equal_cost_paths": lambda t, o, d: equal_cost_paths(t, o, d),
    "Topology.shortest_path": lambda t, o, d: t.shortest_path(o, d),
    "route_on_subset": lambda t, o, d: route_on_subset(
        t, TrafficMatrix({(o, d): 1.0}), set(t.nodes()), set(t.link_keys()), "subset"
    ),
    "compute_failover": lambda t, o, d: compute_failover(t, [], [(o, d)]),
}
CASES = {
    "unknown origin": (("zz", "a"), UnknownNodeError),
    "unknown destination": (("a", "zz"), UnknownNodeError),
    "unreachable": (("a", "z"), PathNotFoundError),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("entry", sorted(SEARCH_ENTRIES))
def test_every_search_entry_has_one_error_contract(entry, case):
    (origin, destination), error = CASES[case]
    search = SEARCH_ENTRIES[entry]
    if entry == "compute_failover" and error is PathNotFoundError:
        # Failover protects what it can: a disconnected pair is skipped.
        assert len(search(island(), origin, destination)) == 0
        return
    with pytest.raises(error):
        search(island(), origin, destination)


def test_a_failed_for_pairs_caches_no_miss():
    provider = CandidatePaths(island())
    for _ in range(2):  # the retry asks again rather than answering from a cached miss
        with pytest.raises(UnknownNodeError):
            provider.for_pairs([("a", "b"), ("a", "zz")], 3)
        with pytest.raises(PathNotFoundError):
            provider.for_pairs([("a", "b"), ("a", "z")], 3)
    assert provider.for_pairs([("a", "b")], 3) == {("a", "b"): [Path.of("ab")]}
    assert provider.paths_enumerated == 1


def test_a_replay_runs_the_same_searches_every_time():
    """``repro_path_searches_total`` is work that repeats exactly: one replay
    of the harness's ``timeline_replay`` spec (seed 11) from an empty table
    of candidate-path providers — and a replay after one that filled it
    runs no spur search at all."""
    family = metrics.counter("repro_path_searches_total")
    kinds = ("spur", "pair", "single_source", "bfs")
    runs = []
    for clear in (True, True, False):
        if clear:
            clear_candidate_paths()
        before = [family.labels(kind=kind).value for kind in kinds]
        run_scenario(replay_scenario(11))
        runs.append([family.labels(kind=k).value - b for k, b in zip(kinds, before, strict=True)])
    assert runs == [[537, 16, 112, 32], [537, 16, 112, 32], [0, 16, 112, 32]]
