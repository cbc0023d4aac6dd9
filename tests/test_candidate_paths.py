"""Differential battery for the candidate-path provider.

:class:`~repro.routing.ksp.CandidatePaths` must hand every solver exactly the
lists networkx's ``shortest_simple_paths`` would (``nx_reference.k_shortest_paths``)
— however the paths were pulled (one call, or k growing across calls on one
instance, or many threads at once) — and a grouped campaign drain must
compute its offline half once per pair set: one REsPoNse plan build, two
path MILPs and, from an empty table, one enumeration of each pair's five
shortest paths.  The table of shared providers (one per network content per
process, LRU-bounded, emptied in a forked child) has its own tests here.
"""

import os
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.exceptions import PathNotFoundError
from repro.obs import metrics, trace
from repro.optim import lp_relaxation_with_rounding
from repro.routing import ksp
from repro.routing.ksp import CandidatePaths, clear_candidate_paths
from repro.scenario import schemes
from repro.scenario.engine import build_scenario_group, scheme_outcomes
from repro.simulator.failures import TopologyView
from repro.topology.base import Topology
from repro.topology.fattree import build_fattree
from repro.topology.geant import build_geant
from repro.topology.rocketfuel import build_abovenet
from repro.units import mbps

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "harness"))

from nx_reference import k_shortest_paths  # noqa: E402
from workloads import geant_grid, replay_scenario  # noqa: E402

KS = (1, 3, 5, 8)


def sampled_pairs(topology, count=12):
    """A seeded sample of ordered node pairs (both directions of each)."""
    rng = random.Random(7)
    nodes = sorted(topology.nodes())
    pairs = []
    while len(pairs) < count:
        origin, destination = rng.sample(nodes, 2)
        pairs += [(origin, destination), (destination, origin)]
    return pairs


@pytest.fixture(scope="module", params=["geant", "fattree4", "abovenet"])
def topology(request):
    return {
        "geant": build_geant,
        "fattree4": lambda: build_fattree(4),
        "abovenet": build_abovenet,
    }[request.param]()


def test_provider_equals_k_shortest_paths_pair_by_pair(topology):
    pairs = sampled_pairs(topology)
    grown = CandidatePaths(topology)  # one instance, k growing 1 -> 8
    for k in KS:
        expected = {
            pair: k_shortest_paths(topology, pair[0], pair[1], k) for pair in pairs
        }
        assert CandidatePaths(topology).for_pairs(pairs, k) == expected
        assert grown.for_pairs(pairs, k) == expected
    # Shrinking k afterwards serves a prefix without enumerating anything.
    enumerated = grown.paths_enumerated
    assert grown.for_pairs(pairs, 3) == {
        pair: k_shortest_paths(topology, pair[0], pair[1], 3) for pair in pairs
    }
    assert grown.paths_enumerated == enumerated == sum(
        len(paths) for paths in grown.for_pairs(pairs, max(KS)).values()
    )


def test_pair_with_fewer_than_k_simple_paths(diamond):
    provider = CandidatePaths(diamond)
    for k in (1, 3, 5):
        assert provider.for_pairs([("a", "d")], k) == {
            ("a", "d"): k_shortest_paths(diamond, "a", "d", k)
        }
    assert len(provider.for_pairs([("a", "d")], 8)[("a", "d")]) == 2
    assert provider.paths_enumerated == 2  # both paths, pulled exactly once
    with pytest.raises(ValueError):
        provider.for_pairs([("a", "d")], 0)


def test_unreachable_pair_raises_path_not_found():
    island = Topology("island")
    for name in "abz":
        island.add_node(name)
    island.add_link("a", "b", capacity_bps=mbps(100))
    provider = CandidatePaths(island)
    with pytest.raises(PathNotFoundError):
        k_shortest_paths(island, "a", "z", 3)
    for _ in range(2):  # a retry asks the graph again rather than caching a miss
        with pytest.raises(PathNotFoundError):
            provider.for_pairs([("a", "b"), ("a", "z")], 3)
    assert provider.for_pairs([("a", "b")], 3) == {
        ("a", "b"): k_shortest_paths(island, "a", "b", 3)
    }


class _SpanNames(trace.SpanCollector):
    def __init__(self):
        self.exited = []

    def on_exit(self, span):
        self.exited.append((span.name, dict(span.attrs)))


def test_grouped_drain_computes_the_offline_half_once_per_pair_set(tmp_path):
    """The harness-shaped 12-point grid: 3 pair sets x 2 totals x 2 SLOs."""
    clear_candidate_paths()
    solves = metrics.counter("repro_milp_solves_total").labels(kind="path")
    enumerated = metrics.counter("repro_candidate_paths_enumerated_total")
    spec = CampaignSpec.from_dict(geant_grid(11))
    points = spec.expand()
    assert len(points) == 12
    builts = build_scenario_group([point.spec for point in points])
    distinct = sorted({pair for built in builts for pair in built.pairs})
    topology = builts[0].topology
    available = sum(
        len(k_shortest_paths(topology, origin, destination, 5))
        for origin, destination in distinct
    )

    drains = []
    for drain in range(2):
        solves_before, enumerated_before = solves.value, enumerated.value
        collector = _SpanNames()
        with trace.collect(collector):
            summary = run_campaign(spec, store_path=tmp_path / f"grid-{drain}.sqlite")
        assert summary.executed == 12 and summary.failed == 0
        plans = [name for name, _ in collector.exited if name == "response.plan"]
        traced = sum(
            attrs.get("paths_enumerated", 0)
            for name, attrs in collector.exited
            if name in ("response.plan", "scheme.solve")
        )
        drains.append(
            (len(plans), solves.value - solves_before, enumerated.value - enumerated_before, traced)
        )
    # Each drain builds one plan per pair set, not one per point, and solves
    # an always-on and an on-demand MILP per plan.  From an empty table the
    # first enumerates every distinct pair to GreenTE's k=5 exactly once (the
    # plan builds' k=3 is a prefix of the same enumeration); the second
    # resumes the process's provider and enumerates nothing.
    assert drains == [(3, 6, available, available), (3, 6, 0, 0)]


def test_lp_relax_replay_draws_from_one_provider_per_topology_object(monkeypatch):
    """``lp-relax`` once called the relaxation with a private provider —
    every pair re-enumerated on each of the replay's 16 intervals.  Now every
    solve, bare or not, draws from the process's provider of its network."""
    clear_candidate_paths()
    providers = []
    real_init = CandidatePaths.__init__

    def counting_init(provider, topology):
        providers.append(topology)
        real_init(provider, topology)

    monkeypatch.setattr(CandidatePaths, "__init__", counting_init)
    built = build_scenario_group([{**replay_scenario(11), "schemes": ["lp-relax"]}])[0]
    shared = scheme_outcomes(built)["lp-relax"]["solutions"]
    assert len(shared) == 16
    # The day's network and its failure view, one provider each.
    assert [topology.name for topology in providers] == ["geant", "geant-degraded"]

    def bare_solve(runtime, state, matrix, view):
        return lp_relaxation_with_rounding(
            view.topology,
            state.scenario.power_model,
            matrix,
            k=runtime.k,
            utilisation_limit=runtime.utilisation_limit,
        )

    monkeypatch.setattr(schemes.LpRelaxRuntime, "solve", bare_solve)
    # From an empty table, so the bare solves enumerate afresh what the
    # replay resumed: a resumed provider must return a fresh one's paths.
    clear_candidate_paths()
    bare = scheme_outcomes(built)["lp-relax"]["solutions"]
    assert [topology.name for topology in providers[2:]] == ["geant", "geant-degraded"]
    assert [(s.active_nodes, s.active_links, s.power_w) for s in shared] == [
        (s.active_nodes, s.active_links, s.power_w) for s in bare
    ]


# --------------------------------------------------------------------- #
# The process's table of shared providers
# --------------------------------------------------------------------- #


def test_equal_networks_share_a_provider_and_a_failure_view_does_not():
    clear_candidate_paths()
    first, second = build_geant(), build_geant()
    assert first is not second
    provider = CandidatePaths.shared(first)
    assert CandidatePaths.shared(second) is provider
    assert provider.index is first.index()  # the snapshot it was keyed on
    degraded = TopologyView(first, failed_links=[first.link_keys()[0]]).topology
    assert CandidatePaths.shared(degraded) is not provider
    assert CandidatePaths.shared(first) is provider


def test_a_mutated_topology_gets_a_fresh_provider_and_the_old_one_its_snapshot():
    clear_candidate_paths()
    topology, original = build_geant(), build_geant()
    pairs = sampled_pairs(topology)
    before = CandidatePaths.shared(topology)
    assert before.for_pairs(pairs[2:], 2) == {
        pair: k_shortest_paths(original, *pair, 2) for pair in pairs[2:]
    }
    origin, destination = pairs[0]
    topology.add_link(origin, destination, capacity_bps=mbps(100_000))
    after = CandidatePaths.shared(topology)
    assert after is not before and after.index is topology.index()
    assert after.for_pairs(pairs, 5) == {
        pair: k_shortest_paths(topology, *pair, 5) for pair in pairs
    }
    assert after.for_pairs([(origin, destination)], 1)[(origin, destination)][0].nodes == (
        origin,
        destination,
    )
    # The old provider keeps walking the network it was keyed on: its
    # suspended enumerations and the ones it starts now (pairs[:2]).
    assert before.for_pairs(pairs, 5) == {
        pair: k_shortest_paths(original, *pair, 5) for pair in pairs
    }


def test_the_table_evicts_the_least_recently_used_provider_past_its_bound():
    clear_candidate_paths()
    networks = []
    for size in range(ksp.SHARED_PROVIDERS + 1):
        line = Topology(f"line-{size}")
        for name in range(size + 2):
            line.add_node(str(name))
            if name:
                line.add_link(str(name - 1), str(name), capacity_bps=mbps(100))
        networks.append(line)
    providers = [CandidatePaths.shared(network) for network in networks[:-1]]
    assert CandidatePaths.shared(networks[0]) is providers[0]  # now the most recent
    CandidatePaths.shared(networks[-1])  # one past the bound: evicts networks[1]'s
    assert len(ksp._table.providers) == ksp.SHARED_PROVIDERS
    assert CandidatePaths.shared(networks[0]) is providers[0]
    assert all(
        CandidatePaths.shared(network) is provider
        for network, provider in zip(networks[2:-1], providers[2:], strict=True)
    )
    assert CandidatePaths.shared(networks[1]) is not providers[1]


def test_threads_pulling_from_one_provider_all_get_networkx_lists():
    """More threads than cores resume one provider's Yen generators at once
    (unserialised, one raises ``generator already executing``)."""
    topology = build_abovenet()
    pairs = sampled_pairs(topology, count=40)
    expected = {pair: k_shortest_paths(topology, *pair, 8) for pair in pairs}
    workers = (os.cpu_count() or 1) + 2
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(3):
            provider = CandidatePaths(topology)
            start = threading.Barrier(workers, timeout=30)
            results, errors = [], []

            def pull():
                start.wait()
                try:
                    results.append(provider.for_pairs(pairs, 8))
                except Exception as error:  # collected: a thread's raise is lost
                    errors.append(error)

            threads = [threading.Thread(target=pull) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [] and results == [expected] * workers
            assert provider.paths_enumerated == sum(map(len, expected.values()))
    finally:
        sys.setswitchinterval(previous)


def test_a_forked_child_starts_from_an_empty_table():
    CandidatePaths.shared(build_geant())
    assert ksp._table.providers
    reader, writer = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        os.close(reader)
        os.write(writer, str(len(ksp._table.providers)).encode())
        os._exit(0)
    os.close(writer)
    with os.fdopen(reader) as answer:
        inherited = answer.read()
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert inherited == "0"
    assert ksp._table.providers  # the parent's table is untouched
