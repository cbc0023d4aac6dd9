"""Differential battery for the candidate-path provider.

:class:`~repro.routing.ksp.CandidatePaths` must hand every solver exactly the
lists networkx's ``shortest_simple_paths`` would (``nx_reference.k_shortest_paths``)
— however the paths were pulled (one call, or k growing across calls on one instance) — and a
grouped campaign drain must compute its offline half once per pair set:
one REsPoNse plan build, two path MILPs and one enumeration of each pair's
five shortest paths.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.exceptions import PathNotFoundError
from repro.obs import metrics, trace
from repro.optim import lp_relaxation_with_rounding
from repro.routing.ksp import CandidatePaths
from repro.scenario import schemes
from repro.scenario.engine import build_scenario_group, scheme_outcomes
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
    solves = metrics.counter("repro_milp_solves_total").labels(kind="path")
    solves_before = solves.value
    spec = CampaignSpec.from_dict(geant_grid(11))
    points = spec.expand()
    assert len(points) == 12
    enumerated = metrics.counter("repro_candidate_paths_enumerated_total")
    before = enumerated.value
    collector = _SpanNames()
    with trace.collect(collector):
        summary = run_campaign(spec, store_path=tmp_path / "grid.sqlite")
    assert summary.executed == 12 and summary.failed == 0

    plans = [attrs for name, attrs in collector.exited if name == "response.plan"]
    assert len(plans) == 3  # one per pair set, not one per point
    assert solves.value - solves_before == 6  # always-on + on-demand MILP per plan

    # Every distinct pair is enumerated to GreenTE's k=5 exactly once; the
    # plan builds' k=3 is a prefix of the same enumeration.
    builts = build_scenario_group([point.spec for point in points])
    distinct = sorted({pair for built in builts for pair in built.pairs})
    topology = builts[0].topology
    available = sum(
        len(k_shortest_paths(topology, origin, destination, 5))
        for origin, destination in distinct
    )
    assert enumerated.value - before == available
    traced = sum(
        attrs.get("paths_enumerated", 0)
        for name, attrs in collector.exited
        if name in ("response.plan", "scheme.solve")
    )
    assert traced == available


def test_lp_relax_replay_draws_from_one_provider_per_topology_object(monkeypatch):
    """``lp-relax`` used to call the relaxation bare — a private provider,
    every pair re-enumerated, on each of the replay's 16 intervals."""
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
    assert len(providers) == len({id(topology) for topology in providers}) == 2

    def bare_solve(runtime, state, matrix, view):
        return lp_relaxation_with_rounding(
            view.topology,
            state.scenario.power_model,
            matrix,
            k=runtime.k,
            utilisation_limit=runtime.utilisation_limit,
        )

    del providers[:]
    monkeypatch.setattr(schemes.LpRelaxRuntime, "solve", bare_solve)
    private = scheme_outcomes(built)["lp-relax"]["solutions"]
    assert len(providers) > 2
    assert [(s.active_nodes, s.active_links, s.power_w) for s in shared] == [
        (s.active_nodes, s.active_links, s.power_w) for s in private
    ]
