"""Tests for the event-driven timeline engine and the events axis."""

import json
import os

import pytest

from repro.core.failover import compute_failover
from repro.core.planner import activate_paths
from repro.core.response import ResponseConfig, build_response_plan
from repro.exceptions import ConfigurationError
from repro.experiments.runner import main
from repro.optim.greente import greente_heuristic
from repro.power.accounting import network_power
from repro.routing.paths import Path, RoutingTable
from repro.scenario import (
    EventSpec,
    PowerSpec,
    ScenarioResult,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
    build_timeline,
    register,
    run_scenario,
)
from repro.scenario.engine import scheme_outcomes
from repro.simulator.failures import FailureState, TopologyChange, TopologyView, due
from repro.topology.base import Topology


def line_topology(*names, capacity=1e9):
    topo = Topology("line")
    for name in names:
        topo.add_node(name)
    for u, v in zip(names, names[1:], strict=False):
        topo.add_link(u, v, capacity_bps=capacity)
    return topo


def geant_failure_spec(**overrides):
    """A small GEANT scenario with a mid-trace link failure."""
    settings = dict(
        name="geant-failure",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec(
            "gravity",
            num_pairs=12,
            num_endpoints=6,
            seed=1,
            calibrate=True,
            levels=[0.25, 0.5, 1.0],
        ),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("response", num_paths=3, k=3), SchemeSpec("greente")),
        events=(EventSpec("link-failure", time_s=900.0, link=["DE", "FR"]),),
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


# --------------------------------------------------------------------- #
# due() boundary semantics and the failure fold
# --------------------------------------------------------------------- #


def test_due_event_exactly_at_interval_edge_fires_once_never_twice():
    changes = [TopologyChange(900.0, "link", "fail", ("a", "b"))]
    windows = [(-float("inf"), 0.0), (0.0, 900.0), (900.0, 1800.0), (1800.0, 2700.0)]
    fired = [len(due(changes, prev, now)) for prev, now in windows]
    assert fired == [0, 1, 0, 0]  # in the window it closes, once


def test_due_event_within_drift_tolerance_of_edge_fires_once():
    # An event nominally at an edge but drifted past it by accumulated float
    # error must still fire exactly once across contiguous windows.
    drifted = 900.0 + 5e-13
    changes = [TopologyChange(drifted, "link", "fail", ("a", "b"))]
    first = due(changes, 0.0, 900.0)
    second = due(changes, 900.0, 1800.0)
    assert len(first) + len(second) == 1
    assert len(first) == 1  # tolerated as "at the 900s edge"


def test_due_event_at_window_open_does_not_refire():
    changes = [TopologyChange(900.0, "link", "fail", ("a", "b"))]
    assert due(changes, 900.0, 1800.0) == []


class _Idle:
    def initialise(self, network, flows, now_s):
        pass

    def control(self, network, flows, now_s):
        pass


def test_node_repair_does_not_clobber_independent_link_failure(diamond, cisco_model):
    from repro.simulator import LinkState, SimulatedNetwork, SimulationEngine

    network = SimulatedNetwork(diamond, cisco_model)
    # Link a-b fails on its own at t=1; node a fails at t=2 and is repaired
    # at t=3.  The node repair must NOT resurrect a-b (still failed on its
    # own) while a's other incident links come back.
    failures = [
        TopologyChange(1.0, "link", "fail", ("a", "b")),
        TopologyChange(2.0, "node", "fail", ("a",)),
        TopologyChange(3.0, "node", "repair", ("a",)),
    ]
    engine = SimulationEngine(
        network, [], _Idle(), time_step_s=0.5, failures=failures
    )
    engine.run(duration_s=4.0)
    codes, position = network.link_state_codes(), diamond.index().link_index
    assert codes[position[("a", "b")]] == LinkState.FAILED
    assert codes[position[("a", "c")]] == LinkState.ACTIVE
    changes = [
        TopologyChange(2.0, "link", "fail", ("a", "b")),
        TopologyChange(1.0, "node", "fail", ("c",)),
        TopologyChange(3.0, "node", "repair", ("c",)),
    ]
    events = due(changes, -float("inf"), float("inf"))
    assert [event.time_s for event in events] == [1.0, 2.0, 3.0]
    assert events[0].element == "node"
    assert len(events) == 3


def test_failure_state_returns_one_view_per_failed_state(geant):
    failed = FailureState(geant)
    intact = failed.view()
    assert intact.topology is geant and not intact.has_failures
    failed.apply(TopologyChange(1.0, "link", "fail", ("FR", "DE")))
    broken = failed.view()
    assert broken.failed_links == {("DE", "FR")}
    assert failed.view() is broken
    failed.apply(TopologyChange(2.0, "link", "repair", ("DE", "FR")))
    assert failed.view() is intact  # the repaired network is the same object


def test_engine_fails_exactly_the_unusable_links_of_a_plain_replay(geant):
    """A seeded random fail/repair sequence on GEANT: after every engine
    step the FAILED links are the unusable links of the failed sets that a
    plain replay of the changes fired so far leaves."""
    import random

    import numpy as np

    from repro.simulator import LinkState, SimulatedNetwork, SimulationEngine

    rng = random.Random(29)
    links, nodes = geant.link_keys(), geant.nodes()
    changes = []
    for step in range(60):
        action = rng.choice(("fail", "fail", "repair"))
        if rng.random() < 0.3:
            changes.append(TopologyChange(step * 0.5, "node", action, (rng.choice(nodes),)))
        else:
            u, v = rng.choice(links)
            target = (u, v) if rng.random() < 0.5 else (v, u)
            changes.append(TopologyChange(step * 0.5, "link", action, target))
    # Out of time order, several at one step, a node failing over a failed
    # link and repaired while the link stays down.
    changes += [
        TopologyChange(10.5, "node", "repair", ("DE",)),
        TopologyChange(10.0, "link", "fail", ("FR", "DE")),
        TopologyChange(10.0, "node", "fail", ("DE",)),
    ]
    in_time_order = sorted(changes, key=lambda change: change.time_s)
    index = geant.index()
    checked = []

    class Checker:
        def initialise(self, network, flows, now_s):
            pass

        def control(self, network, flows, now_s):
            failed_links, failed_nodes = set(), set()
            for change in in_time_order:
                if change.time_s > now_s + 1e-12:
                    break
                if change.element == "link":
                    bucket, element = failed_links, tuple(sorted(change.target))
                else:
                    bucket, element = failed_nodes, change.target[0]
                if change.action == "fail":
                    bucket.add(element)
                else:
                    bucket.discard(element)
            expected = TopologyView(geant, failed_links, failed_nodes).unusable_links()
            codes = network.link_state_codes()
            failed = {index.link_keys[i] for i in np.flatnonzero(codes == LinkState.FAILED)}
            assert failed == expected, now_s
            checked.append(len(expected))

    network = SimulatedNetwork(geant)
    engine = SimulationEngine(network, [], Checker(), time_step_s=0.5, failures=changes)
    engine.run(duration_s=31.0)
    assert len(checked) == 63
    assert sum(1 for count in checked if count) > 10


# --------------------------------------------------------------------- #
# TopologyView
# --------------------------------------------------------------------- #


def test_topology_view_without_failures_is_the_base_object():
    topo = line_topology("a", "b", "c")
    view = TopologyView(topo)
    assert view.topology is topo  # identity keeps per-topology caches warm
    assert not view.has_failures
    assert view.connected_pairs([("a", "c")]) == [("a", "c")]


def test_topology_view_failed_link_and_node():
    topo = line_topology("a", "b", "c", "d")
    view = TopologyView(topo, failed_links=[("c", "b")])
    assert view.failed_links == {("b", "c")}  # canonicalised
    assert not view.topology.has_link("b", "c")
    assert view.connected_pairs([("a", "b"), ("a", "d")]) == [("a", "b")]

    node_view = TopologyView(topo, failed_nodes=["b"])
    assert node_view.unusable_links() == {("a", "b"), ("b", "c")}
    assert "b" not in node_view.topology.nodes()


def test_connected_pairs_labels_the_components_once_per_view(monkeypatch, geant):
    """Three schemes ask every interval of a failure; the answers are the
    undirected networkx components', from one walk over the index."""
    import networkx as nx
    from nx_reference import to_networkx

    from repro.topology.index import TopologyIndex

    walks, real = [], TopologyIndex.component_labels

    def counting(index, arc_on=None):
        walks.append(index)
        return real(index, arc_on)

    monkeypatch.setattr(TopologyIndex, "component_labels", counting)
    pairs = [(o, d) for o in geant.nodes() for d in geant.nodes() if o != d]
    pairs += [("DE", "no-such-node"), ("no-such-node", "FR")]
    views = [
        TopologyView(geant, failed_links=[("DE", "FR")]),
        TopologyView(geant, failed_nodes=["DE"]),
        # LU hangs off FR and DE: this one partitions the network.
        TopologyView(geant, failed_links=[("FR", "LU")], failed_nodes=["DE"]),
        TopologyView(geant, failed_links=geant.link_keys()),
    ]
    sizes = []
    for view in views:
        graph = to_networkx(view.topology).to_undirected()
        expected = [
            (o, d)
            for o, d in pairs
            if o in graph and d in graph and nx.has_path(graph, o, d)
        ]
        before = len(walks)
        assert view.connected_pairs(pairs) == expected
        assert view.connected_pairs(iter(pairs[:50])) == [p for p in expected if p in pairs[:50]]
        assert len(walks) == before + 1
        sizes.append(len(expected))
    assert len(pairs) - 2 == sizes[0] > sizes[1] > sizes[2] > sizes[3] == 0


# --------------------------------------------------------------------- #
# compute_failover under disconnection
# --------------------------------------------------------------------- #


def test_compute_failover_skips_disconnected_pairs():
    topo = line_topology("a", "b", "c")
    table = RoutingTable({("a", "c"): Path.of(["a", "b", "c"])}, name="always-on")
    # On the intact line there is no disjoint alternative: the failover path
    # is the least-overlapping one, i.e. the same line.
    intact = compute_failover(topo, [table], pairs=[("a", "c")])
    assert intact.get("a", "c") is not None

    view = TopologyView(topo, failed_links=[("b", "c")])
    degraded = compute_failover(view.topology, [table], pairs=[("a", "c")])
    assert degraded.get("a", "c") is None  # disconnected pair skipped, no crash
    assert degraded.pairs() == []


# --------------------------------------------------------------------- #
# Events axis: specs, hashing, registry
# --------------------------------------------------------------------- #


def test_event_spec_round_trips_and_hash_covers_events():
    spec = geant_failure_spec()
    rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec
    assert rebuilt.config_hash() == spec.config_hash()

    event_free = geant_failure_spec(events=())
    assert event_free.config_hash() != spec.config_hash()
    moved = geant_failure_spec(
        events=(EventSpec("link-failure", time_s=1800.0, link=["DE", "FR"]),)
    )
    assert moved.config_hash() != spec.config_hash()
    # Event-free specs keep the historical dict shape (no empty events key).
    assert "events" not in event_free.to_dict()


def test_unknown_event_kind_rejected_with_registered_names():
    spec = geant_failure_spec(events=(EventSpec("meteor-strike", time_s=1.0),))
    with pytest.raises(ConfigurationError, match="unknown event component"):
        spec.validate()


def test_event_builders_validate_their_windows():
    with pytest.raises(ConfigurationError, match="repair_s"):
        EventSpec("link-failure", time_s=10.0, link=["a", "b"], repair_s=5.0).build()
    with pytest.raises(ConfigurationError, match="window is empty"):
        EventSpec("traffic-surge", start_s=10.0, end_s=10.0).build()


def test_event_times_must_be_finite():
    for spec in (
        EventSpec("link-failure", time_s=float("nan"), link=["DE", "FR"]),
        EventSpec("link-failure", time_s=1.0, link=["DE", "FR"], repair_s=float("inf")),
        EventSpec("node-repair", time_s=float("-inf"), node="DE"),
        EventSpec("traffic-surge", start_s=float("nan")),
        EventSpec("traffic-surge", start_s=0.0, end_s=float("nan")),
    ):
        with pytest.raises(ConfigurationError, match="finite"):
            spec.build()
    # A NaN failure used to never fire, so the run was failure-free.
    nan_spec = geant_failure_spec(
        events=(EventSpec("link-failure", time_s=float("nan"), link=["DE", "FR"]),)
    )
    with pytest.raises(ConfigurationError, match="finite"):
        run_scenario(nan_spec)


def test_surge_pairs_must_name_topology_nodes():
    # A surge over a non-node used to fire and change no demand.
    spec = geant_failure_spec(
        events=(EventSpec("traffic-surge", start_s=0.0, pairs=[["DE", "XX"]]),)
    )
    with pytest.raises(ConfigurationError, match="unknown node 'XX'"):
        build_scenario(spec)


# --------------------------------------------------------------------- #
# The timeline itself
# --------------------------------------------------------------------- #


def test_build_timeline_applies_failures_and_surges():
    spec = geant_failure_spec(
        events=(
            EventSpec("link-failure", time_s=900.0, link=["DE", "FR"], repair_s=1800.0),
            EventSpec("traffic-surge", start_s=900.0, end_s=1800.0, factor=2.0),
        )
    )
    built = build_scenario(spec)
    timeline = build_timeline(built.topology, built.trace, built.events)
    assert len(timeline) == 3
    first, second, third = timeline.steps
    assert not first.view.has_failures
    assert second.view.failed_links == {("DE", "FR")}
    assert not third.view.has_failures  # repaired
    # The repaired view is the base topology again (same cached object).
    assert third.view is first.view
    # Surge doubles demand during [900, 1800) only.
    assert second.matrix.total_bps == pytest.approx(
        2.0 * built.trace[1].total_bps
    )
    assert third.matrix.total_bps == pytest.approx(built.trace[2].total_bps)
    fired_kinds = [record["kind"] for step in timeline.steps for record in step.fired]
    assert fired_kinds == ["link-failure", "traffic-surge", "link-repair"]


def test_event_targeting_unknown_element_is_rejected():
    spec = geant_failure_spec(
        events=(EventSpec("link-failure", time_s=0.0, link=["DE", "MARS"]),)
    )
    with pytest.raises(ConfigurationError, match="unknown link"):
        run_scenario(spec)
    node_spec = geant_failure_spec(
        events=(EventSpec("node-failure", time_s=0.0, node="MARS"),)
    )
    with pytest.raises(ConfigurationError, match="unknown node"):
        run_scenario(node_spec)
    # Validation is eager: a typoed event scheduled past the trace end
    # (which would never fire) must still be rejected, not silently turn
    # the run event-free.
    late_spec = geant_failure_spec(
        events=(EventSpec("link-failure", time_s=1e9, link=["DE", "MARS"]),)
    )
    with pytest.raises(ConfigurationError, match="unknown link"):
        run_scenario(late_spec)


def test_stress_ablation_rejects_traffic_surges():
    from repro.experiments.stress_ablation import run_stress_ablation

    with pytest.raises(ConfigurationError, match="only supports topology events"):
        run_stress_ablation(
            fractions=(0.2,),
            num_pairs=4,
            num_endpoints=3,
            events=[{"name": "traffic-surge", "params": {"start_s": 0.0}}],
        )


def test_stress_ablation_rejects_a_typoed_event_target():
    """A failure of a link GEANT lacks used to measure the intact network."""
    from repro.experiments.stress_ablation import run_stress_ablation

    with pytest.raises(ConfigurationError, match="unknown link"):
        run_stress_ablation(
            fractions=(0.2,),
            num_pairs=4,
            num_endpoints=3,
            events=[{"name": "link-failure", "params": {"time_s": 0.0, "link": ["DE", "XX"]}}],
        )


def test_event_before_trace_start_applies_to_first_interval():
    spec = geant_failure_spec(
        events=(EventSpec("link-failure", time_s=0.0, link=["DE", "FR"]),)
    )
    built = build_scenario(spec)
    timeline = build_timeline(built.topology, built.trace, built.events)
    assert timeline.steps[0].view.failed_links == {("DE", "FR")}


# --------------------------------------------------------------------- #
# run_scenario over an eventful timeline (the acceptance scenario)
# --------------------------------------------------------------------- #


def test_run_scenario_with_link_failure_reports_reaction_metrics():
    result = run_scenario(geant_failure_spec())
    assert [event["kind"] for event in result.events] == ["link-failure"]
    for label in ("response", "greente"):
        assert len(result.columns["power_percent"][label]) == 3
        assert len(result.columns["compute_seconds"][label]) == 3
        assert all(value >= 0.0 for value in result.columns["compute_seconds"][label])
    # Post-failure utilisation is reported for the activation-based scheme.
    reaction = result.reaction["response"]
    assert len(reaction) == 1
    record = reaction[0]
    assert record["kind"] == "link-failure"
    assert record["interval_index"] == 1
    assert record["max_utilisation"] is not None
    assert record["power_percent"] == result.columns["power_percent"]["response"][1]
    assert isinstance(record["violation"], bool)
    assert record["compute_seconds"] >= 0.0
    # The REsPoNse plan is precomputed: no recomputation even under failure
    # (its failover table was built offline).
    assert result.columns["recomputations"]["response"] == 0
    # The JSON view round-trips (the --output file format).
    round_tripped = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert round_tripped.to_dict() == result.to_dict()


def test_node_failure_changes_ospf_power():
    spec = geant_failure_spec(
        schemes=(SchemeSpec("ospf"), SchemeSpec("response", num_paths=3, k=3)),
        events=(EventSpec("node-failure", time_s=900.0, node="DE"),),
    )
    result = run_scenario(spec)
    series = result.columns["power_percent"]["ospf"]
    assert series[0] == 100.0
    assert series[1] < 100.0  # the failed node and its links stop drawing power
    assert result.reaction["ospf"][0]["kind"] == "node-failure"
    # REsPoNse stops billing the failed chassis too: DE is always-on in the
    # plan, and in no activation once it is down.
    built = build_scenario(spec)
    before, *after = scheme_outcomes(built)["response"]["activations"]
    assert "DE" in before.active_nodes
    chassis_w = built.power_model.chassis_power_w(built.topology.node("DE"))
    for activation in after:
        assert "DE" not in activation.active_nodes
        billed = network_power(
            built.topology,
            built.power_model,
            activation.active_nodes | {"DE"},
            activation.active_links,
        )
        assert activation.power_w == pytest.approx(billed.total_w - chassis_w)


def test_event_free_timeline_is_bit_identical_to_cold_replay():
    """Warm-start/memoising runtimes must not change event-free results."""
    spec = geant_failure_spec(events=())
    built = build_scenario(spec)
    result = run_scenario(spec)
    # The pre-timeline greente replay: cold candidates, one solve per matrix.
    solutions = [
        greente_heuristic(
            built.topology,
            built.power_model,
            matrix,
            k=5,
            allow_overload=True,
            ordering="stable",
        )
        for matrix in built.trace.matrices()
    ]
    expected = [
        100.0 * solution.power_w / built.baseline_power_w for solution in solutions
    ]
    assert result.columns["power_percent"]["greente"] == expected  # exact, not approx


def test_plan_built_once_is_bit_identical_to_a_plan_per_interval():
    """REsPoNse's runtime builds its plan in ``start`` and only re-activates:
    the series is the one a fresh plan per interval gives (fat-tree, sine
    wave — the datacenter stack of the paper)."""
    spec = ScenarioSpec(
        name="timeline-fattree",
        topology=TopologySpec("fattree", k=4),
        traffic=TrafficSpec("sinewave", mode="far", num_intervals=12, seed=4),
        power=PowerSpec("commodity", ports_at_peak=4),
        schemes=(SchemeSpec("response", num_paths=3, k=4),),
    )
    built = build_scenario(spec)
    result = run_scenario(spec)
    expected = []
    for matrix in built.trace.matrices():
        plan = build_response_plan(
            built.topology,
            built.power_model,
            pairs=built.pairs,
            config=ResponseConfig(num_paths=3, k=4),
        )
        activation = activate_paths(
            built.topology,
            built.power_model,
            plan,
            matrix,
            utilisation_threshold=spec.utilisation_threshold,
        )
        expected.append(activation.power_percent)
    assert len(expected) == 12
    assert result.columns["power_percent"]["response"] == expected  # exact, not approx


def test_response_reacts_to_a_failure_by_activation_greente_by_a_new_solve():
    """A mid-trace link failure on a GÉANT day: REsPoNse's post-failure step
    is a table lookup, GreenTE's a recomputation on the degraded topology."""
    spec = ScenarioSpec(
        name="timeline-geant-failure",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec(
            "geant-trace", num_days=1, num_pairs=110, num_endpoints=16, subsample=4
        ),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("response", num_paths=3, k=3), SchemeSpec("greente")),
        events=(EventSpec("link-failure", time_s=6 * 3600.0, link=["DE", "FR"]),),
    )
    result = run_scenario(spec)
    assert len(result.times_s) == 24
    (response,), (greente,) = result.reaction["response"], result.reaction["greente"]
    assert response["kind"] == greente["kind"] == "link-failure"
    assert result.columns["recomputations"]["response"] == 0
    assert result.columns["recomputations"]["greente"] == 1
    assert 0.0 < response["power_percent"] <= 100.0
    # ~1 ms against ~60 ms: the recomputation-latency proxy of the paper's
    # "no recomputation under failure" claim.
    assert response["compute_seconds"] < greente["compute_seconds"]


def test_run_built_scenario_on_interval_hook_streams_bit_identical_values():
    """The interval-major streaming pass must not change any computed value.

    The service's replay endpoint rides on ``run_built_scenario(on_interval=...)``;
    this pins its contract: the hook fires once per timeline step with every
    scheme's outcome for that step, and the returned run matches a plain
    scheme-major run bit-for-bit (wall-clock step timings aside).
    """
    from repro.campaign.store import canonical_result_dict
    from repro.scenario.engine import run_built_scenario

    spec = geant_failure_spec()
    built = build_scenario(spec)
    plain = run_built_scenario(built)

    seen = []

    def on_interval(step, outcomes):
        seen.append((step.index, step.time_s, dict(outcomes)))

    hooked = run_built_scenario(built, on_interval=on_interval)

    # One call per interval, in order, with every scheme present.
    assert [index for index, _, _ in seen] == list(range(len(plain.times_s)))
    assert [time_s for _, time_s, _ in seen] == plain.times_s
    assert all(set(outcomes) == {"response", "greente"} for _, _, outcomes in seen)
    # The streamed outcomes ARE the result's series (same values, live).
    for label in ("response", "greente"):
        assert [
            outcomes[label].power_percent for _, _, outcomes in seen
        ] == hooked.columns["power_percent"][label]
    # And the full result is bit-identical to the scheme-major run.
    assert canonical_result_dict(hooked.to_dict()) == canonical_result_dict(
        plain.to_dict()
    )


def test_run_built_scenario_on_interval_hook_event_free_identity():
    """Event-free scenarios stream identically too (no-event fast path)."""
    from repro.campaign.store import canonical_result_dict
    from repro.scenario.engine import run_built_scenario

    built = build_scenario(geant_failure_spec(events=()))
    calls = []
    hooked = run_built_scenario(built, on_interval=lambda step, o: calls.append(step))
    plain = run_built_scenario(built)
    assert len(calls) == len(plain.times_s)
    assert all(step.fired == [] for step in calls)
    assert canonical_result_dict(hooked.to_dict()) == canonical_result_dict(
        plain.to_dict()
    )


def test_solver_runtime_memoises_unchanged_intervals(monkeypatch):
    import repro.scenario.schemes as schemes_module

    calls = []
    original = schemes_module.greente_heuristic

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(schemes_module, "greente_heuristic", counting)
    spec = geant_failure_spec(
        traffic=TrafficSpec(
            "gravity",
            num_pairs=12,
            num_endpoints=6,
            seed=1,
            calibrate=True,
            levels=[0.5, 0.5, 0.5],  # three identical intervals
        ),
        schemes=(SchemeSpec("greente"),),
        events=(),
    )
    result = run_scenario(spec)
    assert len(calls) == 1  # solved once, replayed from warm state twice
    assert len(set(result.columns["power_percent"]["greente"])) == 1


def test_candidate_paths_survive_across_timeline_steps(monkeypatch):
    from repro.routing.ksp import CandidatePaths, clear_candidate_paths
    from repro.scenario.engine import run_built_scenario

    clear_candidate_paths()
    providers = []
    real_init = CandidatePaths.__init__

    def recording_init(provider, topology):
        real_init(provider, topology)
        providers.append((topology.name, provider))

    monkeypatch.setattr(CandidatePaths, "__init__", recording_init)
    built = build_scenario(geant_failure_spec(schemes=(SchemeSpec("greente"),)))
    run_built_scenario(built)
    # One provider on the intact topology, one on the degraded view — and
    # each pair's five paths enumerated once per provider, never per interval.
    assert [name for name, _ in providers] == ["geant", "geant-degraded"]
    enumerated = [provider.paths_enumerated for _, provider in providers]
    for count in enumerated:
        assert 0 < count <= 5 * len(built.pairs)
    # A second run (a fresh build: new topology objects) resumes both.
    run_built_scenario(build_scenario(geant_failure_spec(schemes=(SchemeSpec("greente"),))))
    assert len(providers) == 2
    assert [provider.paths_enumerated for _, provider in providers] == enumerated


def test_plain_callable_scheme_component_is_rejected():
    """A ``SchemeRuntime`` subclass is the only scheme form the timeline runs."""

    @register("scheme", "_test-plain-callable")
    def _flat(scenario, level=42.0):
        return {"power_percent": [level for _ in scenario.trace.matrices()]}

    spec = geant_failure_spec(
        schemes=(SchemeSpec("_test-plain-callable", level=7.0),), events=()
    )
    with pytest.raises(ConfigurationError, match="SchemeRuntime"):
        run_scenario(spec)


def test_group_with_different_trace_lengths_matches_solo_runs():
    """A shorter point of a group simply stops participating early."""
    from repro.campaign.store import canonical_result_dict
    from repro.scenario.engine import (
        build_scenario_group,
        run_built_scenario,
        run_built_scenarios_batch,
    )

    def spec_with(levels):
        traffic = TrafficSpec(
            "gravity", num_pairs=12, num_endpoints=6, seed=1, calibrate=True, levels=levels
        )
        return geant_failure_spec(
            name=f"levels-{len(levels)}",
            traffic=traffic,
            schemes=(
                SchemeSpec("response", num_paths=3, k=3),
                SchemeSpec("greente"),
                SchemeSpec("ecmp"),
            ),
            events=(),
        )

    specs = [spec_with([0.25, 1.0]), spec_with([0.25, 0.5, 1.0])]
    builts = build_scenario_group(specs)
    assert builts[0].shared is builts[1].shared
    assert builts[0].topology is builts[1].topology
    grouped = run_built_scenarios_batch(builts)
    assert [len(result.times_s) for result in grouped] == [2, 3]
    for spec, result in zip(specs, grouped, strict=True):
        solo = run_built_scenario(build_scenario(spec))
        assert canonical_result_dict(result.to_dict()) == canonical_result_dict(solo.to_dict())


def test_hand_built_scenario_without_shared_runs_every_shipped_scheme(
    diamond, cisco_model, diamond_demands
):
    """``BuiltScenario.shared`` is always there — no runtime tests for it."""
    from repro.power.accounting import full_power
    from repro.scenario import BuiltScenario, component_names
    from repro.scenario.engine import run_built_scenario
    from repro.traffic.replay import TrafficTrace

    names = [name for name in component_names("scheme") if not name.startswith("_test")]
    assert len(names) == 13
    built = BuiltScenario(
        spec=ScenarioSpec(
            name="hand-built",
            topology=TopologySpec("example"),
            traffic=TrafficSpec("uniform"),
            power=PowerSpec("cisco"),
            schemes=tuple(SchemeSpec(name) for name in names),
        ),
        topology=diamond,
        power_model=cisco_model,
        trace=TrafficTrace([diamond_demands, diamond_demands.scaled(1.5)], interval_s=900.0),
        pairs=diamond_demands.pairs(),
        baseline_power_w=full_power(diamond, cisco_model).total_w,
        events=[],
    )
    result = run_built_scenario(built)
    assert result.labels() == names
    for label in names:
        assert len(result.columns["power_percent"][label]) == 2
        assert all(0.0 < value <= 100.0 + 1e-9 for value in result.columns["power_percent"][label])
    # A scenario built on its own owns a private cache.
    other = BuiltScenario(
        spec=built.spec,
        topology=diamond,
        power_model=cisco_model,
        trace=built.trace,
        pairs=built.pairs,
        baseline_power_w=built.baseline_power_w,
        events=[],
    )
    assert other.shared is not built.shared


# --------------------------------------------------------------------- #
# CLI: events end-to-end, --output round-trip
# --------------------------------------------------------------------- #


def test_cli_list_components_shows_event_kinds(capsys):
    assert main(["list-components", "--kind", "event"]) == 0
    output = capsys.readouterr().out
    assert "link-failure" in output
    assert "traffic-surge" in output
    assert "node-failure" in output


def test_cli_event_flag_and_events_set_overrides(tmp_path, capsys):
    output_path = tmp_path / "result.json"
    assert (
        main(
            [
                "run-scenario",
                "--topology",
                "geant",
                "--traffic",
                "gravity",
                "--power",
                "cisco",
                "--scheme",
                "response",
                "--event",
                "link-failure",
                "--set",
                "traffic.num_pairs=12",
                "--set",
                "traffic.num_endpoints=6",
                "--set",
                "traffic.calibrate=true",
                "--set",
                "traffic.levels=[0.5, 1.0]",
                "--set",
                "events.0.time_s=900",
                "--set",
                'events.0.link=["DE", "FR"]',
                "--output",
                str(output_path),
            ]
        )
        == 0
    )
    printed = capsys.readouterr().out
    assert "link-failure" in printed

    payload = json.loads(output_path.read_text())
    assert payload["spec"]["events"][0]["params"]["time_s"] == 900
    assert payload["events"] == [
        {"time_s": 900.0, "kind": "link-failure", "link": ["DE", "FR"]}
    ]
    restored = ScenarioResult.from_dict(payload)
    assert restored.to_dict() == payload  # full --output round trip
    assert restored.reaction["response"][0]["interval_index"] == 1


def test_cli_example_failure_spec_writes_events_and_reaction_records(tmp_path, capsys):
    """Failure injection end to end from the shipped spec: the events fire
    and the ``--output`` JSON carries the per-event reaction metrics."""
    spec_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "examples",
        "scenario_geant_failure.json",
    )
    output_path = tmp_path / "timeline-result.json"
    assert main(["run-scenario", "--spec", spec_path, "--output", str(output_path)]) == 0
    assert "link-failure" in capsys.readouterr().out
    payload = json.loads(output_path.read_text())
    assert [event["kind"] for event in payload["events"]] == [
        "link-failure",
        "link-repair",
        "traffic-surge",
    ]
    assert payload["reaction"]["response"], "missing reaction records"
    assert payload["compute_seconds"]["response"], "missing latency proxy"


def test_cli_events_set_rejects_bad_index(capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "run-scenario",
                "--topology",
                "geant",
                "--traffic",
                "gravity",
                "--power",
                "cisco",
                "--scheme",
                "ospf",
                "--set",
                "events.0.time_s=900",
            ]
        )
    assert "out of range" in capsys.readouterr().err


def test_traced_timeline_is_bit_identical_and_covers_every_interval(tmp_path, read_trace):
    """Tracing observes the timeline without perturbing it.

    The observability layer promises that enabling span capture changes no
    computed value — only sidecar NDJSON appears — and that the sidecar
    covers the run: one ``scheme.step`` per (scheme, interval) plus the
    failure reaction spans.
    """
    from repro.campaign.store import canonical_result_dict
    from repro.obs import trace

    spec = geant_failure_spec()
    plain = run_scenario(spec)
    trace_path = tmp_path / "timeline.ndjson"
    trace.configure_tracing(trace_path)
    try:
        traced = run_scenario(spec)
    finally:
        trace.disable_tracing()
    assert canonical_result_dict(traced.to_dict()) == canonical_result_dict(
        plain.to_dict()
    )
    records = read_trace(trace_path)
    steps = [r for r in records if r["name"] == "scheme.step"]
    intervals = len(plain.times_s)
    per_scheme = {}
    for step in steps:
        per_scheme.setdefault(step["attrs"]["scheme"], []).append(
            step["attrs"]["interval"]
        )
    assert set(per_scheme) == {"response", "greente"}
    for scheme, seen in per_scheme.items():
        assert sorted(seen) == list(range(intervals)), scheme
    # The offline plan build was captured (failover is computed in it, so
    # the plan span covers every solve).
    assert any(r["name"] == "response.plan" for r in records)
