"""Differential battery for the candidate-path provider.

:class:`~repro.routing.ksp.CandidatePaths` must hand every solver exactly the
lists networkx's ``shortest_simple_paths`` would (``nx_reference.k_shortest_paths``)
— however the paths were pulled (one call, or k growing across calls on one
instance, or many threads at once) — and a process must compute a grid's
offline half once per pair set, whatever its claims: one REsPoNse plan
build, two path MILPs and, from an empty table, one enumeration of each
pair's five shortest paths.  The process's network table (an entry per
network content holding its provider, plans, always-on sets, GreenTE solves
and ECMP evaluations; LRU-bounded, locked, emptied in a forked child) has
its own tests here.
"""

import dataclasses
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
from repro.power import CiscoRouterPowerModel
from repro.routing import ksp
from repro.routing.ksp import CandidatePaths, clear_network_table
from repro.scenario import schemes
from repro.scenario.engine import build_scenario_group, run_built_scenario, scheme_outcomes
from repro.simulator.failures import TopologyView
from repro.topology.base import Topology
from repro.topology.fattree import build_fattree
from repro.topology.geant import build_geant
from repro.topology.rocketfuel import build_abovenet
from repro.traffic import TrafficMatrix, calibrate_max_load
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
    """The harness-shaped 12-point grid: 3 pair sets x 2 totals x 2 SLOs.

    First as a ``--worker-id`` worker drains it from a fresh process — one
    point per claim, so each point is its own group — then as a default
    drain in the same process."""
    clear_network_table()
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
    for drain, chunk_size in enumerate((1, None)):
        solves_before, enumerated_before = solves.value, enumerated.value
        collector = _SpanNames()
        with trace.collect(collector):
            summary = run_campaign(
                spec, store_path=tmp_path / f"grid-{drain}.sqlite", chunk_size=chunk_size
            )
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
    # The process builds one plan per pair set, not one per point, and
    # solves an always-on and an on-demand MILP per plan.  From an empty
    # table the first drain enumerates every distinct pair to GreenTE's k=5
    # exactly once (the plan builds' k=3 is a prefix of the same
    # enumeration); the second finds every plan and path in the table.
    assert drains == [(3, 6, available, available), (0, 0, 0, 0)]


def test_lp_relax_replay_draws_from_one_provider_per_topology_object(monkeypatch):
    """``lp-relax`` once called the relaxation with a private provider —
    every pair re-enumerated on each of the replay's 16 intervals.  Now every
    solve, bare or not, draws from the process's provider of its network."""
    clear_network_table()
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
    clear_network_table()
    bare = scheme_outcomes(built)["lp-relax"]["solutions"]
    assert [topology.name for topology in providers[2:]] == ["geant", "geant-degraded"]
    assert [(s.active_nodes, s.active_links, s.power_w) for s in shared] == [
        (s.active_nodes, s.active_links, s.power_w) for s in bare
    ]


# --------------------------------------------------------------------- #
# The process's network table: providers
# --------------------------------------------------------------------- #


def test_equal_networks_share_a_provider_and_a_failure_view_does_not():
    clear_network_table()
    first, second = build_geant(), build_geant()
    assert first is not second
    provider = CandidatePaths.shared(first)
    assert CandidatePaths.shared(second) is provider
    assert provider.index is first.index()  # the snapshot it was keyed on
    degraded = TopologyView(first, failed_links=[first.link_keys()[0]]).topology
    assert CandidatePaths.shared(degraded) is not provider
    assert CandidatePaths.shared(first) is provider


def test_a_mutated_topology_gets_a_fresh_provider_and_the_old_one_its_snapshot():
    clear_network_table()
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
    clear_network_table()
    networks = []
    for size in range(ksp.SHARED_NETWORKS + 1):
        line = Topology(f"line-{size}")
        for name in range(size + 2):
            line.add_node(str(name))
            if name:
                line.add_link(str(name - 1), str(name), capacity_bps=mbps(100))
        networks.append(line)
    providers = [CandidatePaths.shared(network) for network in networks[:-1]]
    assert CandidatePaths.shared(networks[0]) is providers[0]  # now the most recent
    CandidatePaths.shared(networks[-1])  # one past the bound: evicts networks[1]'s
    assert len(ksp._table.entries) == ksp.SHARED_NETWORKS
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
    assert ksp._table.entries
    reader, writer = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        os.close(reader)
        os.write(writer, str(len(ksp._table.entries)).encode())
        os._exit(0)
    os.close(writer)
    with os.fdopen(reader) as answer:
        inherited = answer.read()
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert inherited == "0"
    assert ksp._table.entries  # the parent's table is untouched


# --------------------------------------------------------------------- #
# Plans and always-on sets in the network table
# --------------------------------------------------------------------- #


def harness_point():
    """The first point of the harness grid, built on its own."""
    spec = CampaignSpec.from_dict(geant_grid(11)).expand()[0].spec
    return build_scenario_group([spec])[0]


def triangle(name="triangle", kind="router", latency_s=0.001, capacity=mbps(100)):
    topology = Topology(name)
    for node in "abc":
        topology.add_node(node, kind=kind)
    for u, v in ("ab", "bc", "ac"):
        topology.add_link(u, v, capacity_bps=capacity, latency_s=latency_s)
    return topology


def test_the_content_key_covers_what_a_plan_reads():
    key = triangle().index().content_key
    assert key == triangle().index().content_key
    assert key.value[0] == triangle().index().search_key
    # What Yen's enumeration reads is equal, what a plan reads is not.
    for other in (triangle(kind="switch"), triangle(latency_s=0.002)):
        assert other.index().search_key == key.value[0]
        assert other.index().content_key != key
    assert triangle(capacity=mbps(200)).index().content_key != key
    # The name is left to the plan's own key: renaming stays an attribute write.
    renamed = triangle()
    index = renamed.index()
    renamed.name = "renamed"
    assert renamed.index() is index
    assert triangle(name="other").index().content_key == key


def test_calibrations_sit_beside_the_entries_keyed_by_what_a_calibration_reads():
    """Networks that differ only in name or latencies share a calibration;
    other capacities do not.  Calibrating makes no network entry, so it
    cannot evict another network's paths or plans."""
    clear_network_table()
    base = TrafficMatrix({("a", "c"): mbps(10)})
    hits = metrics.counter("repro_calibration_cache_hits_total")
    misses = metrics.counter("repro_calibration_cache_misses_total")
    before = hits.value, misses.value
    scale = calibrate_max_load(triangle(), base)
    for same in (triangle(name="other"), triangle(latency_s=0.002)):
        assert calibrate_max_load(same, base) == scale
    assert calibrate_max_load(triangle(capacity=mbps(200)), base) != scale
    assert (hits.value - before[0], misses.value - before[1]) == (2, 2)
    assert not ksp._table.entries


def test_equal_networks_share_a_plan_and_what_differs_does_not():
    """Two scenarios built apart on equal content share one plan and one
    always-on set; a failure view or a mutated topology has its own entry,
    and a renamed topology (the plan records the name), another power model,
    other pairs or another config their own plan."""
    clear_network_table()
    built, again = harness_point(), harness_point()
    assert built.topology is not again.topology
    assert built.power_model is not again.power_model

    def plan(scenario, **config):
        return schemes.ResponseRuntime(**config).start(scenario).plan

    def always_on(scenario, **config):
        return schemes.AlwaysOnRuntime(**config).start(scenario)["always_on"]

    first = plan(built)
    assert plan(again) is first
    assert always_on(again) is always_on(built)
    entry = ksp.network_entry(built.topology)
    assert ksp.network_entry(again.topology) is entry

    degraded = TopologyView(built.topology, failed_links=[built.topology.link_keys()[0]])
    mutated = build_geant()
    mutated.add_link(*built.pairs[0], capacity_bps=mbps(100_000))
    for other in (degraded.topology, mutated):
        assert ksp.network_entry(other) is not entry
    renamed = dataclasses.replace(again, topology=build_geant())
    renamed.topology.name = "geant-renamed"
    assert ksp.network_entry(renamed.topology) is entry
    assert plan(renamed) is not first
    assert plan(renamed).topology_name == "geant-renamed"
    # An always-on set records no name, so it stays shared.
    assert always_on(renamed) is always_on(built)

    cheaper = CiscoRouterPowerModel(chassis_power_w=100.0)
    for differs in (
        dataclasses.replace(built, power_model=cheaper),
        dataclasses.replace(built, pairs=built.pairs[1:]),
    ):
        assert plan(differs) is not first
        assert always_on(differs) is not always_on(built)
    assert plan(built, k=4) is not first
    assert always_on(built, k=4) is not always_on(built)
    assert plan(built) is first


def test_threads_building_one_plan_all_get_the_value_stored_first():
    clear_network_table()
    entry = ksp.network_entry(build_geant())
    workers = (os.cpu_count() or 1) + 2
    start = threading.Barrier(workers, timeout=30)
    misses = metrics.counter("repro_plan_memo_misses_total").labels(kind="plan")
    before = misses.value
    results = []

    def build():
        start.wait()  # every thread has missed before any stores
        return object()

    threads = [
        threading.Thread(target=lambda: results.append(entry.value("plan", "key", build)))
        for _ in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == workers and all(value is results[0] for value in results)
    assert entry.value("plan", "key", object) is results[0]
    assert misses.value - before == workers


def test_an_entry_keeps_its_most_recently_used_plans():
    """Plans, and each other kind apart from them, within the kind's bound."""
    clear_network_table()
    entry = ksp.network_entry(build_geant())
    for kind, bound in (
        ("plan", ksp.PLANS_PER_NETWORK),
        ("greente", ksp.INTERVALS_PER_NETWORK),
        ("ecmp", ksp.INTERVALS_PER_NETWORK),
    ):
        values = [entry.value(kind, index, object) for index in range(bound)]
        assert entry.value(kind, 0, object) is values[0]  # now the most recent
        entry.value(kind, "one past the bound", object)  # evicts value 1
        assert entry.value(kind, 0, object) is values[0]
        assert all(entry.value(kind, index, object) is values[index] for index in range(2, bound))
        assert entry.value(kind, 1, object) is not values[1]
        # Always-on sets are counted apart from every other kind.
        assert entry.value("always_on", kind, object) is not values[0]


def test_equal_networks_share_a_greente_solve_and_an_ecmp_evaluation():
    """Two scenarios built apart on equal content share one GreenTE solve
    and one ECMP evaluation of a matrix; a failure view, another power
    model, another ``k`` or another utilisation limit computes its own."""
    clear_network_table()
    built, again = harness_point(), harness_point()
    assert built.topology is not again.topology
    matrix = built.trace.matrices()[0]
    hits = metrics.counter("repro_plan_memo_hits_total")
    misses = metrics.counter("repro_plan_memo_misses_total")

    def counted(kind, run):
        before = hits.labels(kind=kind).value, misses.labels(kind=kind).value
        value = run()
        return value, (
            hits.labels(kind=kind).value - before[0],
            misses.labels(kind=kind).value - before[1],
        )

    def greente(scenario, view=None, **params):
        runtime = schemes.GreenTERuntime(**params)
        state = runtime.start(scenario)
        runtime.step(state, 0.0, matrix, view or TopologyView(scenario.topology))
        return state.solutions[-1]

    def ecmp(scenario, view=None):
        runtime = schemes.ECMPRuntime()
        state = runtime.start(scenario)
        runtime.step(state, 0.0, matrix, view or TopologyView(scenario.topology))
        return state.configurations[-1]

    solve, counts = counted("greente", lambda: greente(built))
    assert counts == (0, 1)
    assert counted("greente", lambda: greente(again)) == (solve, (1, 0))
    assert counted("greente", lambda: greente(again))[0] is solve
    evaluation, counts = counted("ecmp", lambda: ecmp(built))
    assert counts == (0, 1)
    shared, counts = counted("ecmp", lambda: ecmp(again))
    assert counts == (1, 0)
    assert shared.active_nodes is evaluation.active_nodes

    degraded = TopologyView(built.topology, failed_links=[built.topology.link_keys()[0]])
    cheaper = dataclasses.replace(built, power_model=CiscoRouterPowerModel(chassis_power_w=100.0))
    for run in (
        lambda: greente(built, view=degraded),
        lambda: greente(cheaper),
        lambda: greente(built, k=4),
        lambda: greente(built, utilisation_limit=0.8),
    ):
        assert counted("greente", run)[1] == (0, 1)
    for run in (lambda: ecmp(built, view=degraded), lambda: ecmp(cheaper)):
        assert counted("ecmp", run)[1] == (0, 1)
    # ECMP keeps a failure view's evaluations on the base network's entry.
    clear_network_table()
    ecmp(built, view=degraded)
    assert len(ksp._table.entries) == 1


def test_a_group_keeps_every_value_its_points_step_through():
    """Two points of one group share a trace longer than
    :data:`~repro.routing.ksp.INTERVALS_PER_NETWORK` and run one after the
    other: the second computes no GreenTE solve and no ECMP evaluation."""
    clear_network_table()
    traffic = {"name": "geant-trace", "params": {"num_days": 2, "num_pairs": 10}}
    specs = [
        {
            "name": f"long-{threshold}",
            "topology": "geant",
            "traffic": traffic,
            "power": "cisco",
            "schemes": [{"name": "greente", "params": {}}, "ecmp"],
            "utilisation_threshold": threshold,
        }
        for threshold in (0.85, 0.9)
    ]
    first, second = build_scenario_group(specs)
    intervals = len(first.trace)
    assert intervals > ksp.INTERVALS_PER_NETWORK
    counters = [
        metrics.counter(name).labels(kind=kind)
        for name in ("repro_plan_memo_hits_total", "repro_plan_memo_misses_total")
        for kind in ("greente", "ecmp")
    ]
    before = [counter.value for counter in counters]
    run_built_scenario(first)
    run_built_scenario(second)
    counts = [counter.value - start for counter, start in zip(counters, before)]
    assert counts == [intervals] * 4  # one miss and one hit per interval and kind


def test_a_replay_from_an_empty_table_equals_a_warm_one():
    """Every value the table hands a replay is the one it would compute."""
    from repro.campaign.store import canonical_result_dict
    from repro.scenario.engine import run_scenario

    spec = replay_scenario(11)
    misses = [
        metrics.counter("repro_plan_memo_misses_total").labels(kind=kind)
        for kind in ("greente", "ecmp")
    ]
    clear_network_table()
    cold = canonical_result_dict(run_scenario(spec).to_dict())
    before = [counter.value for counter in misses]
    warm = canonical_result_dict(run_scenario(spec).to_dict())
    assert [counter.value for counter in misses] == before  # all from the table
    assert warm == cold
    clear_network_table()
    assert canonical_result_dict(run_scenario(spec).to_dict()) == warm


def test_a_plan_build_pulling_its_own_entrys_paths_does_not_deadlock():
    clear_network_table()
    topology = build_geant()
    pairs = sampled_pairs(topology)
    entry = ksp.network_entry(topology)

    def build():
        again = build_geant()  # equal content: the same entry, looked up inside the build
        return CandidatePaths.shared(again).for_pairs(pairs, 3), entry.value("always_on", 0, dict)

    result = []
    thread = threading.Thread(target=lambda: result.append(entry.value("plan", 0, build)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    paths, _ = result[0]
    assert paths == {pair: k_shortest_paths(topology, *pair, 3) for pair in pairs}
