"""Differential battery for the candidate-path provider.

:class:`~repro.routing.ksp.CandidatePaths` must hand every solver exactly the
lists :func:`~repro.routing.ksp.k_shortest_paths` would — however the paths
were pulled (one call, or k growing across calls on one instance) — and a
grouped campaign drain must compute its offline half once per pair set:
one REsPoNse plan build, two path MILPs and one enumeration of each pair's
five shortest paths.
"""

import random
import sys
from pathlib import Path

import pytest

import repro.optim.pathmilp as pathmilp_module
from repro.campaign import CampaignSpec, run_campaign
from repro.exceptions import PathNotFoundError
from repro.obs import metrics, trace
from repro.routing.ksp import CandidatePaths, k_shortest_paths
from repro.scenario.engine import build_scenario_group
from repro.topology.base import Topology
from repro.topology.fattree import build_fattree
from repro.topology.geant import build_geant
from repro.topology.rocketfuel import build_abovenet
from repro.units import mbps

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "harness"))

from workloads import geant_grid  # noqa: E402

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


def test_grouped_drain_computes_the_offline_half_once_per_pair_set(tmp_path, monkeypatch):
    """The harness-shaped 12-point grid: 3 pair sets x 2 totals x 2 SLOs."""
    solves = []
    real_milp = pathmilp_module.milp

    def counting_milp(*args, **kwargs):
        solves.append(1)
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(pathmilp_module, "milp", counting_milp)
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
    assert len(solves) == 6  # always-on + on-demand MILP per plan

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
