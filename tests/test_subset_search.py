"""Subset-search identity: the witness-flow routine returns the plain loop's sets.

``greedy_minimum_subset`` and ``lp_relaxation_with_rounding`` hand their
switch-off order to one routine, ``optim.subset.shrink_active_subset``, that
keeps a feasible flow per origin as a witness — a seed packed onto paths,
the last feasible LP's, or one repaired along detours — and answers "can
this element go?" without a solver when the witness does not touch it, or
when its flow there moves onto detours with slack.  The loop it
replaced — one fresh ``FlowSession`` per candidate — is kept
here as the reference.  Pinned:

* ``active_nodes``, ``active_links`` and ``power_w`` are ``==`` the
  reference's on every shipped topology under the traffic specs of
  ``examples/*.json`` (at three shares of the largest load the topology
  carries, and as the 1 bit/s ε matrix), under two utilisation limits, on a
  failure view with the restricted matrix, with empty demands and on
  random connected topologies;
* one session carried across GÉANT trace intervals — a surge and a
  failure view among them — gives every interval the sets, power and
  routing of a fresh search, and a new origin set restores no basis;
* a link candidate is taken in either orientation, and an unknown node or
  a pair that is not a link is named in the error, as is a session of
  another topology object or utilisation limit;
* every cut refusal — on the ``timeline_replay`` spec, on ``greedy`` over
  every shipped topology, on random demands and arc masks — is infeasible
  for a fresh ``FlowSession`` on the same arcs; a demand equal to its
  endpoint's capacity, or within the margin above it, goes to the LP; an ε
  matrix is never refused by a cut; an infeasible LP without a dual ray
  learns nothing;
* every seed and every repair — on the ``timeline_replay`` spec, on
  ``greedy`` over every shipped topology, on random demands and switch-offs
  — is zero on the arcs that are off, conserves each origin's flow, stays
  within capacity and is feasible for a fresh ``FlowSession`` on the same
  arcs; a detour with slack at or within the margin of the amount goes to
  the LP, one past it is repaired; a node crossed by two origins is
  repaired origin by origin; a seed that does not fit leaves the search to
  answer as before;
* one replay of the benchmark harness's ``timeline_replay`` spec solves at
  most 25 feasibility LPs (204 with the plain loop, 128 before the cut
  pool, 68 before the seed and the repair) in at most 520 simplex
  iterations (2 273 before a candidate's basis was kept between intervals,
  963 before the cut pool, 595 before the seed and the repair), and the
  counts are on the ``scheme.solve`` spans and in
  ``repro_subset_checks_total``;
* tied link powers (a fat-tree under the commodity model) give one active
  set, and one replay the same answer counts, under every
  ``PYTHONHASHSEED``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    UnknownArcError,
    UnknownNodeError,
)
from repro.obs import metrics, trace
from repro.optim import (
    element_power_coefficients,
    greedy_minimum_subset,
    lp_relaxation_with_rounding,
    solve_path_milp,
)
from repro.optim.subset import shrink_active_subset
from repro.power import CiscoRouterPowerModel, CommoditySwitchPowerModel, network_power
from repro.routing import highs, mcf
from repro.routing.mcf import ConcurrentFlow, FlowSession
from repro.scenario.engine import build_scenario, run_scenario
from repro.simulator.failures import TopologyView
from repro.topology import Topology, build_fattree, random_connected_topology
from repro.traffic import TrafficMatrix, all_pairs

from test_calibration import (  # noqa: I001
    SHIPPED_TOPOLOGIES,
    base_matrix,
    example_traffic_specs,
)
from workloads import replay_scenario

#: (share of the largest load the topology carries, utilisation limit); a
#: share of ``None`` is the paper's ε matrix: 1 bit/s on every pair.
LOADS_AND_LIMITS = [(0.1, 1.0), (0.5, 0.6), (0.9, 1.0), (None, 1.0), (None, 0.6)]


def traffic_specs():
    """Every other distinct traffic section of ``examples/*.json``: 8 pairs
    under two seeds and the 40-pair one."""
    return example_traffic_specs()[::2]


# --------------------------------------------------------------------- #
# The reference: one LP per candidate, nothing carried between them
# --------------------------------------------------------------------- #
def plain_loop(topology, demands, utilisation_limit, nodes, links, candidates):
    """Try every candidate with a fresh ``FlowSession`` on the candidate sets."""
    nodes, links = set(nodes), set(links)
    for element in candidates:
        if isinstance(element, tuple):
            if element not in links:
                continue
            fewer_nodes, fewer_links = nodes, links - {element}
        else:
            fewer_nodes = nodes - {element}
            fewer_links = {key for key in links if element not in key}
        fresh = FlowSession(topology, demands, utilisation_limit, fewer_nodes, fewer_links)
        if fresh.solve().feasible:
            nodes, links = fewer_nodes, fewer_links
    return nodes, links


def protected(topology, demands):
    always = {name for name in topology.nodes() if topology.node(name).always_powered}
    return always | set(demands.nodes())


def reference_greedy(topology, power_model, demands, utilisation_limit=1.0):
    """Chiaraviglio's recipe: routers, then links, most power-hungry first."""
    node_power, link_power = element_power_coefficients(topology, power_model)
    keep_nodes = protected(topology, demands)

    def router_power(name):
        incident = sum(link_power[link.key] for link in topology.incident_links(name))
        return node_power[name] + incident

    routers = sorted(topology.routers(), key=router_power, reverse=True)
    links = sorted(topology.link_keys(), key=lambda key: (-link_power[key], key))
    nodes, links = plain_loop(
        topology,
        demands,
        utilisation_limit,
        topology.nodes(),
        topology.link_keys(),
        [name for name in routers if name not in keep_nodes] + links,
    )
    attached = {name for key in links for name in key}
    nodes = {name for name in nodes if name in attached or name in keep_nodes}
    return nodes, links, network_power(topology, power_model, nodes, links).total_w


def reference_lp_relax(topology, power_model, demands, utilisation_limit=1.0):
    """Fisher's outline: the relaxation's support, links first, then nodes."""
    relaxed = solve_path_milp(
        topology,
        power_model,
        demands,
        k=3,
        utilisation_limit=utilisation_limit,
        relaxed=True,
        solver_name="lp-relaxation",
    )
    keep_nodes = protected(topology, demands)
    nodes, links = plain_loop(
        topology,
        demands,
        utilisation_limit,
        relaxed.active_nodes,
        relaxed.active_links,
        sorted(relaxed.active_links)
        + [name for name in sorted(relaxed.active_nodes) if name not in keep_nodes],
    )
    return nodes, links, network_power(topology, power_model, nodes, links).total_w


def assert_same_subset(reference, routine, topology, power_model, demands, **options):
    """``routine`` == ``reference`` on one case; ``True`` unless both refuse it."""
    try:
        expected = reference(topology, power_model, demands, **options)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            routine(topology, power_model, demands, **options)
        return False
    solution = routine(topology, power_model, demands, **options)
    found = (solution.active_nodes, solution.active_links, solution.power_w)
    assert found == expected, (topology.name, demands.name, options)
    return True


def assert_same_greedy(topology, power_model, demands, **options):
    assert assert_same_subset(
        reference_greedy, greedy_minimum_subset, topology, power_model, demands, **options
    )


def assert_same_lp_relax(topology, power_model, demands, **options):
    return assert_same_subset(
        reference_lp_relax, lp_relaxation_with_rounding, topology, power_model, demands, **options
    )


def demand_levels(topology, base):
    """``(matrix, utilisation limit)`` cases of :data:`LOADS_AND_LIMITS`."""
    largest = ConcurrentFlow(topology, base).max_scale()
    epsilon = TrafficMatrix(dict.fromkeys(base.pairs(), 1.0), name="epsilon")
    return [
        (epsilon if share is None else base.scaled(share * largest), limit)
        for share, limit in LOADS_AND_LIMITS
    ]


def feasibility_solves():
    return int(metrics.counter("repro_mcf_lp_solves_total").labels(kind="feasibility").value)


def subset_checks():
    family = metrics.counter("repro_subset_checks_total")
    return {
        sample["labels"]["answer"]: int(sample["value"]) for sample in family.samples()
    }


def routine_solves():
    checks = subset_checks()
    return checks.get("lp_feasible", 0) + checks.get("lp_infeasible", 0)


# --------------------------------------------------------------------- #
# (a) Differential: same sets and power as the plain loop
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_greedy_on_shipped_topologies_under_example_traffic(name):
    topology_section = {"name": name, "params": SHIPPED_TOPOLOGIES[name]}
    power_model = CommoditySwitchPowerModel() if name == "fattree" else CiscoRouterPowerModel()
    solves_before, routine_before = feasibility_solves(), routine_solves()
    for traffic in traffic_specs():
        topology, base = base_matrix(topology_section, traffic)
        for demands, limit in demand_levels(topology, base):
            assert_same_greedy(topology, power_model, demands, utilisation_limit=limit)
    # Reference and routine ran side by side: the routine's share of the
    # LPs is the smaller one.
    assert routine_solves() - routine_before < (feasibility_solves() - solves_before) / 2


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_lp_relaxation_on_shipped_topologies_under_example_traffic(name):
    topology_section = {"name": name, "params": SHIPPED_TOPOLOGIES[name]}
    power_model = CommoditySwitchPowerModel() if name == "fattree" else CiscoRouterPowerModel()
    compared = 0
    for traffic in traffic_specs():
        topology, base = base_matrix(topology_section, traffic)
        for demands, limit in demand_levels(topology, base):
            compared += assert_same_lp_relax(topology, power_model, demands, utilisation_limit=limit)
    # The three-path relaxation cannot carry every load the full LP can
    # (then both raise); the light and the two ε cases it always does.
    assert compared >= 9


def test_failure_view_with_the_restricted_matrix(geant, cisco_model):
    """What a solver runtime hands over under failures: surviving topology,
    demands restricted to still-connected pairs."""
    traffic = example_traffic_specs()[0]
    _, base = base_matrix({"name": "geant", "params": {}}, traffic)
    view = TopologyView(geant, failed_links=[("DE", "FR")], failed_nodes=["CH"])
    restricted = base.restricted_to(view.connected_pairs(base.pairs()))
    assert 0 < len(restricted) <= len(base)
    for demands, limit in demand_levels(view.topology, restricted):
        assert_same_greedy(view.topology, cisco_model, demands, utilisation_limit=limit)
        assert_same_lp_relax(view.topology, cisco_model, demands, utilisation_limit=limit)


def test_empty_and_all_zero_demands_switch_everything_off(geant, cisco_model):
    for demands in (TrafficMatrix({}), TrafficMatrix({("DE", "FR"): 0.0})):
        assert_same_greedy(geant, cisco_model, demands)
        assert_same_lp_relax(geant, cisco_model, demands)
        solution = greedy_minimum_subset(geant, cisco_model, demands)
        assert solution.active_links == set()
        assert solution.active_nodes == set(demands.nodes())


def test_demands_that_do_not_fit_leave_the_network_whole(geant, cisco_model):
    demands = TrafficMatrix({("DE", "FR"): 1e15})
    assert_same_greedy(geant, cisco_model, demands)
    solution = greedy_minimum_subset(geant, cisco_model, demands)
    assert solution.active_links == set(geant.link_keys())


@st.composite
def random_cases(draw):
    num_nodes = draw(st.integers(min_value=4, max_value=9))
    max_links = num_nodes * (num_nodes - 1) // 2
    num_links = draw(
        st.integers(min_value=num_nodes - 1, max_value=min(max_links, 2 * num_nodes))
    )
    topology = random_connected_topology(
        num_nodes,
        num_links,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        capacity_bps=draw(st.sampled_from([1e8, 1e9, 2.5e9])),
    )
    pairs = draw(
        st.lists(
            st.sampled_from(all_pairs(topology.nodes())), min_size=1, max_size=8, unique=True
        )
    )
    # From ε flows (below the solver's tolerances) to more than a link carries.
    volumes = st.sampled_from([1.0, 1e3, 1e6]) | st.floats(min_value=1e7, max_value=2e9)
    return topology, TrafficMatrix({pair: draw(volumes) for pair in pairs})


@settings(max_examples=60, deadline=None)
@given(random_cases(), st.sampled_from([1.0, 0.6, 0.3]))
def test_random_topologies_and_matrices(case, limit):
    topology, demands = case
    assert_same_greedy(topology, CiscoRouterPowerModel(), demands, utilisation_limit=limit)
    assert_same_lp_relax(topology, CiscoRouterPowerModel(), demands, utilisation_limit=limit)


def test_one_session_serves_searches_from_narrower_and_wider_starts(geant, cisco_model):
    """What a solver runtime does over a run: one session per topology
    object, handed to every search.  ``lp-relax`` starts from the
    relaxation's support — a strict sub-network — after ``greedy`` has put
    the whole network to the same session, and the next call is wider again;
    a session whose model spanned only the sets of its first search answered
    the wider one wrongly."""
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    levels = demand_levels(geant, base)
    for limit in (1.0, 0.6):
        session = FlowSession(geant, base, limit)
        compared = 0
        for demands, level_limit in levels * 2:
            if level_limit != limit:
                continue
            options = {"utilisation_limit": limit}
            for reference, routine in (
                (reference_lp_relax, lp_relaxation_with_rounding),
                (reference_greedy, greedy_minimum_subset),
            ):
                compared += assert_same_subset(
                    reference,
                    lambda *args, routine=routine, **kwargs: routine(
                        *args, session=session, **kwargs
                    ),
                    geant,
                    cisco_model,
                    demands,
                    **options,
                )
        assert compared >= 6 and session.models_built >= 1


def routes(routing):
    return [(pair, path.nodes) for pair, path in routing.items()]


def test_a_session_carried_across_trace_intervals_answers_as_fresh_ones(
    monkeypatch, cisco_model
):
    """What ElasticTree's runtime does over a replay: one session per
    topology object, kept from one interval to the next, so a candidate asked
    again at the same arcs starts from the basis its last solve ended with.
    Twelve GÉANT trace intervals — four plain, four on the DE–FR failure view
    (its own topology object) with the restricted matrices, four surged
    1.5x — and each gives what a fresh search gives."""
    questions = []
    real_witness = FlowSession.witness

    def witness(session, arc_on, candidate):
        questions.append((session, arc_on.copy(), candidate))
        return real_witness(session, arc_on, candidate)

    monkeypatch.setattr(FlowSession, "witness", witness)
    built = build_scenario(replay_scenario(11))
    geant = built.topology
    view = TopologyView(geant, failed_links=[("DE", "FR")])
    failed = view.topology
    matrices = built.trace.matrices()[:12]
    cases = [(geant, matrix) for matrix in matrices[:4]]
    cases += [
        (failed, matrix.restricted_to(view.connected_pairs(matrix.pairs())))
        for matrix in matrices[4:8]
    ]
    cases += [(geant, matrix.scaled(1.5)) for matrix in matrices[8:]]
    sessions = {}
    for topology, demands in cases:
        session = sessions.setdefault(id(topology), FlowSession(topology, demands, 0.9))
        carried = greedy_minimum_subset(topology, cisco_model, demands, 0.9, session)
        fresh = greedy_minimum_subset(topology, cisco_model, demands, 0.9)
        assert (carried.active_nodes, carried.active_links, carried.power_w) == (
            fresh.active_nodes,
            fresh.active_links,
            fresh.power_w,
        )
        assert routes(carried.routing) == routes(fresh.routing)
    assert len(sessions) == 2
    assert all(session.models_built == 1 for session in sessions.values())
    assert sum(session.bases_restored for session in sessions.values()) > 0

    # Another origin set is another model: no basis of the old one is
    # restored.  The last question the GÉANT session's LP got, asked again,
    # starts from the basis it kept — and asked under a new origin set, from
    # none.  (A search would not ask it: the seed answers that set.)
    session = sessions[id(geant)]
    _, arc_on, candidate = [question for question in questions if question[0] is session][-1]
    restored = session.bases_restored
    real_witness(session, arc_on, candidate)
    assert session.models_built == 1 and session.bases_restored == restored + 1
    first = matrices[0].origins()[0]
    other = matrices[0].restricted_to(p for p in matrices[0].pairs() if p[0] != first)
    session.retarget(other)
    real_witness(session, arc_on, candidate)
    assert session.models_built == 2 and session.bases_restored == restored + 1
    found = greedy_minimum_subset(geant, cisco_model, other, 0.9, session)
    assert found.active_links == greedy_minimum_subset(geant, cisco_model, other, 0.9).active_links


def test_a_link_candidate_is_taken_in_either_orientation(geant):
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    demands = base.scaled(0.5 * ConcurrentFlow(geant, base).max_scale())
    links = geant.link_keys()
    reversed_links = [(v, u) for u, v in links]
    nodes = geant.nodes()
    assert shrink_active_subset(geant, demands, 1.0, nodes, links, reversed_links) == (
        shrink_active_subset(geant, demands, 1.0, nodes, links, links)
    )


def test_an_unknown_node_candidate_is_named(geant):
    with pytest.raises(UnknownNodeError, match="no-such-node"):
        shrink_active_subset(
            geant, TrafficMatrix({}), 1.0, geant.nodes(), geant.link_keys(), ["no-such-node"]
        )


def test_a_pair_that_is_not_a_link_is_named(geant):
    nodes = geant.nodes()
    joined = set(geant.link_keys())
    pair = next((u, v) for u in nodes for v in nodes if u < v and (u, v) not in joined)
    with pytest.raises(UnknownArcError, match=f"{pair[0]!r} -> {pair[1]!r}"):
        shrink_active_subset(geant, TrafficMatrix({}), 1.0, nodes, joined, [pair])


def tied_power_case():
    """``(topology, demands)`` of :data:`_TIED_POWERS_SCRIPT`."""
    topology = build_fattree(4)
    rng = random.Random(2)
    hosts = sorted(topology.hosts())
    pairs = set()
    while len(pairs) < 10:
        pairs.add(tuple(rng.sample(hosts, 2)))
    return topology, TrafficMatrix({pair: 4e8 for pair in sorted(pairs)})


def test_a_session_of_another_utilisation_limit_is_refused():
    """It used to be searched at silently: 2038.4375 W, the limit-1.0 answer,
    where the search's own limit 0.5 gives 2725.0 W."""
    topology, demands = tied_power_case()
    model = CommoditySwitchPowerModel()
    assert greedy_minimum_subset(topology, model, demands, 0.5).power_w == 2725.0
    session = FlowSession(topology, demands, 1.0)
    with pytest.raises(ConfigurationError, match=r"utilisation limit 1\.0, the search at 0\.5"):
        greedy_minimum_subset(topology, model, demands, 0.5, session)
    assert greedy_minimum_subset(topology, model, demands, 1.0, session).power_w == 2038.4375


def test_a_session_of_another_topology_object_is_refused():
    topology, demands = tied_power_case()
    other = build_fattree(4)
    other.name = "other-fattree"
    session = FlowSession(other, demands, 1.0)
    assert session.topology is other and session.utilisation_limit == 1.0
    with pytest.raises(ConfigurationError, match="'other-fattree'.*'fattree-k4'"):
        greedy_minimum_subset(topology, CommoditySwitchPowerModel(), demands, 1.0, session)


# --------------------------------------------------------------------- #
# (a') A cut refuses only what the LP refuses
# --------------------------------------------------------------------- #
def checked_cut_refusals(monkeypatch):
    """Wrap ``FlowSession.cut_refuses`` so that every refusal is put to a
    fresh session's LP on the same arcs, which must find it infeasible;
    returns the list of refusals, which grows."""
    refusals, matrices = [], {}
    real_retarget, real_refuses = FlowSession.retarget, FlowSession.cut_refuses

    def retarget(session, demands):
        matrices[id(session)] = demands
        real_retarget(session, demands)

    def cut_refuses(session, arc_on):
        refused = real_refuses(session, arc_on)
        if refused:
            index = session.index
            link_on = arc_on[index.link_arcs[:, 0]]  # a link's arcs are on together
            assert np.array_equal(index.arc_mask(index.node_mask(None), link_on), arc_on)
            demands = matrices[id(session)]
            fresh = FlowSession(session.topology, demands, session.utilisation_limit)
            assert not fresh.solve(link_on=link_on).feasible, (session.topology.name, demands)
            refusals.append((session.topology.name, demands.name))
        return refused

    monkeypatch.setattr(FlowSession, "retarget", retarget)
    monkeypatch.setattr(FlowSession, "cut_refuses", cut_refuses)
    return refusals


def test_every_cut_refusal_of_the_timeline_replay_spec_is_infeasible(monkeypatch):
    refusals = checked_cut_refusals(monkeypatch)
    checks_before = subset_checks()
    run_scenario(replay_scenario(11))
    assert 0 < len(refusals) == subset_checks()["cut"] - checks_before.get("cut", 0)


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_every_cut_refusal_of_greedy_on_shipped_topologies_is_infeasible(monkeypatch, name):
    refusals = checked_cut_refusals(monkeypatch)
    topology_section = {"name": name, "params": SHIPPED_TOPOLOGIES[name]}
    power_model = CommoditySwitchPowerModel() if name == "fattree" else CiscoRouterPowerModel()
    for traffic in traffic_specs():
        topology, base = base_matrix(topology_section, traffic)
        for demands, limit in demand_levels(topology, base):
            greedy_minimum_subset(topology, power_model, demands, utilisation_limit=limit)
            if demands.name == "epsilon":
                # (d) An ε matrix goes to the connectivity walk and the LP,
                # never to a cut: not even with every arc off.
                session = FlowSession(topology, demands, limit)
                assert not session.cut_refuses(np.zeros(topology.index().num_arcs, dtype=bool))
    assert all(matrix_name != "epsilon" for _, matrix_name in refusals)


@settings(max_examples=40, deadline=None)
@given(random_cases(), st.data(), st.sampled_from([1.0, 0.6, 0.3]))
def test_cut_refusals_on_random_demands_and_arc_masks_are_infeasible(case, data, limit):
    """One session asked in turn about random arc masks: a refusal is
    infeasible for a fresh LP, any other answer is the fresh LP's, and each
    infeasible LP may teach a cut the next masks are checked against."""
    topology, demands = case
    index = topology.index()
    session = FlowSession(topology, demands, limit)
    off = st.sets(st.sampled_from(range(len(index.link_keys))), max_size=3)
    for step in range(8):
        link_on = np.ones(len(index.link_keys), dtype=bool)
        link_on[list(data.draw(off))] = False
        arc_on = index.arc_mask(index.node_mask(None), link_on)
        if not session.connected(arc_on):
            continue
        fits = FlowSession(topology, demands, limit).solve(link_on=link_on).feasible
        if session.cut_refuses(arc_on):
            assert not fits
        else:
            assert (session.witness(arc_on, step) is not None) == fits


def triangle():
    """A-B and B-C at 1 Gb/s and A-C at 2.5 Gb/s; with A-C off, the only
    way out of A is 1 Gb/s."""
    topology = Topology("triangle")
    for name in "ABC":
        topology.add_node(name)
    topology.add_link("A", "B", 1e9)
    topology.add_link("B", "C", 1e9)
    topology.add_link("A", "C", 2.5e9)
    return topology


def test_a_demand_at_or_within_the_margin_of_its_capacity_goes_to_the_lp():
    """With A-C off, the singleton {A} has crossing demand d and 1 Gb/s of
    capacity out.  Its margin is δ·scale·(k·(|S| + |in(S)|) + (k + 1)·|out(S)|)
    with k = 1 origin, |S| = 1, two arcs in and two out, times the residual
    allowance: a demand at the capacity, and one within the margin above
    it, reach the LP; one just past the margin is refused by the cut."""
    topology = triangle()
    unit = mcf._RESIDUAL_ALLOWANCE * highs.PRIMAL_FEASIBILITY_TOLERANCE * 2.5e9
    margin = unit * (1 * (1 + 2) + 2 * 2)
    for excess, answer in ((0.0, "lp_feasible"), (0.9 * margin, None), (1.1 * margin, "cut")):
        demands = TrafficMatrix({("A", "C"): 1e9 + excess})
        before = subset_checks()
        nodes, links = shrink_active_subset(
            topology, demands, 1.0, topology.nodes(), topology.link_keys(), [("A", "C")]
        )
        answered = [key for key, count in subset_checks().items() if count > before.get(key, 0)]
        if answer is None:  # the LP decides, within its tolerance
            assert answered in (["lp_feasible"], ["lp_infeasible"])
        else:
            assert answered == [answer]
        assert (("A", "C") in links) == (answered != ["lp_feasible"])


# --------------------------------------------------------------------- #
# (a'') A seed or a repair accepts only what the LP accepts
# --------------------------------------------------------------------- #
def assert_carries_the_demands(session, demands, arc_on, flows):
    """*flows* (origins x arcs, bps) is zero on every arc that is off,
    within the slack :meth:`FlowSession.repair` keeps of every arc's
    capacity, conserves each origin's flow per node and is feasible for a
    fresh session's LP on the same arcs."""
    index = session.index
    positive = [(pair, volume) for pair, volume in demands.items() if volume > 0.0]
    origins = sorted({origin for (origin, _), _ in positive})
    assert flows.shape == (len(origins), index.num_arcs)
    assert not flows[:, ~arc_on].any()
    scale = float(index.arc_capacity.max())
    margin = mcf._RESIDUAL_ALLOWANCE * highs.PRIMAL_FEASIBILITY_TOLERANCE * scale
    margin *= len(origins) + 2
    capacity = index.arc_capacity * session.utilisation_limit
    assert (flows.sum(axis=0) <= capacity + margin).all()
    expected = np.zeros((len(origins), len(index.node_names)))
    for (origin, destination), volume in positive:
        row = origins.index(origin)
        expected[row, index.node_index[origin]] += volume
        expected[row, index.node_index[destination]] -= volume
    balance = np.zeros_like(expected)
    np.add.at(balance, (slice(None), index.arc_src), flows)
    np.subtract.at(balance, (slice(None), index.arc_dst), flows)
    assert np.allclose(balance, expected, rtol=0.0, atol=margin)
    link_on = arc_on[index.link_arcs[:, 0]]  # a link's arcs are on together
    assert np.array_equal(index.arc_mask(index.node_mask(None), link_on), arc_on)
    fresh = FlowSession(session.topology, demands, session.utilisation_limit)
    assert fresh.solve(link_on=link_on).feasible, (session.topology.name, demands)


def checked_flows(monkeypatch):
    """Wrap ``FlowSession.seed`` and ``FlowSession.repair`` so that every
    flow they return is checked by :func:`assert_carries_the_demands`;
    returns the list of acceptances, which grows."""
    acceptances, matrices = [], {}
    real_retarget, real_seed, real_repair = (
        FlowSession.retarget,
        FlowSession.seed,
        FlowSession.repair,
    )

    def retarget(session, demands):
        matrices[id(session)] = demands
        real_retarget(session, demands)

    def accepted(session, arc_on, flows, kind):
        if flows is not None:
            demands = matrices[id(session)]
            assert_carries_the_demands(session, demands, arc_on, flows)
            acceptances.append((kind, session.topology.name, demands.name))
        return flows

    def seed(session, arc_on):
        return accepted(session, arc_on, real_seed(session, arc_on), "seed")

    def repair(session, flows, arc_on, arcs, node):
        return accepted(session, arc_on, real_repair(session, flows, arc_on, arcs, node), "repair")

    monkeypatch.setattr(FlowSession, "retarget", retarget)
    monkeypatch.setattr(FlowSession, "seed", seed)
    monkeypatch.setattr(FlowSession, "repair", repair)
    return acceptances


def test_every_seed_and_repair_of_the_timeline_replay_spec_is_feasible(monkeypatch):
    acceptances = checked_flows(monkeypatch)
    checks_before = subset_checks()
    with trace.collect(SolveSpans()) as spans:
        run_scenario(replay_scenario(11))
    repairs = subset_checks()["repair"] - checks_before.get("repair", 0)
    seeds = sum(attrs.get("witness_seeded", False) for attrs in spans.attrs)
    assert [kind for kind, _, _ in acceptances].count("repair") == repairs > 0
    assert [kind for kind, _, _ in acceptances].count("seed") == seeds > 0


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_every_seed_and_repair_of_greedy_on_shipped_topologies_is_feasible(monkeypatch, name):
    acceptances = checked_flows(monkeypatch)
    topology_section = {"name": name, "params": SHIPPED_TOPOLOGIES[name]}
    power_model = CommoditySwitchPowerModel() if name == "fattree" else CiscoRouterPowerModel()
    for traffic in traffic_specs():
        topology, base = base_matrix(topology_section, traffic)
        for demands, limit in demand_levels(topology, base):
            greedy_minimum_subset(topology, power_model, demands, utilisation_limit=limit)
    # Every topology seeds some search; all but waxman repair some flow too.
    assert [kind for kind, _, _ in acceptances].count("seed") > 0


@settings(max_examples=40, deadline=None)
@given(random_cases(), st.data(), st.sampled_from([1.0, 0.6, 0.3]))
def test_seeds_and_repairs_on_random_demands_and_arc_masks_are_feasible(case, data, limit):
    """One session seeded on every arc, then asked in turn to switch off a
    random link or node: a repair carries the demands and is feasible for a
    fresh LP, and becomes the witness; a refused repair leaves the question
    to the LP, whose flow becomes the witness when it has one."""
    topology, demands = case
    index = topology.index()
    session = FlowSession(topology, demands, limit)
    node_on = np.ones(len(index.node_names), dtype=bool)
    link_on = np.ones(len(index.link_keys), dtype=bool)
    arc_on = index.arc_mask(node_on, link_on)
    witness = session.seed(arc_on)
    if witness is not None:
        assert_carries_the_demands(session, demands, arc_on, witness)
    endpoints = {index.node_index[name] for name in demands.nodes()}
    for step in range(8):
        node = data.draw(st.sampled_from([None, *range(len(index.node_names))]))
        if node is None or node in endpoints or not node_on[node]:
            node = None
            dropped = [data.draw(st.sampled_from(range(len(index.link_keys))))]
        else:
            dropped = index.node_links[node]
        dropped = [link for link in dropped if link_on[link]]
        fewer_nodes, fewer_links = node_on.copy(), link_on.copy()
        if node is not None:
            fewer_nodes[node] = False
        fewer_links[dropped] = False
        fewer_arcs = index.arc_mask(fewer_nodes, fewer_links)
        if not dropped or not session.connected(fewer_arcs):
            continue
        arcs = index.link_arcs[dropped].ravel()
        repaired = None if witness is None else session.repair(witness, fewer_arcs, arcs, node)
        if repaired is not None:
            assert_carries_the_demands(session, demands, fewer_arcs, repaired)
            flows = repaired
        else:
            flows = session.witness(fewer_arcs, step)
        if flows is not None:
            witness, node_on, link_on = flows, fewer_nodes, fewer_links


def test_a_detour_at_or_within_the_margin_of_its_slack_goes_to_the_lp():
    """A sends d to C over A-C (2.5 Gb/s, so the seed fits); with A-C off,
    the detour A-B-C has 1 Gb/s of slack.  The repair wants the amount plus
    a margin of (k + 2)·δ·scale times the residual allowance, k = 1 origin:
    a demand at the slack, or within the margin under it, goes to the LP;
    one past the margin under it is repaired."""
    topology = triangle()
    margin = mcf._RESIDUAL_ALLOWANCE * highs.PRIMAL_FEASIBILITY_TOLERANCE * 2.5e9 * (1 + 2)
    cases = ((0.0, "lp_feasible"), (0.5 * margin, "lp_feasible"), (1.1 * margin, "repair"))
    for shortfall, answer in cases:
        demands = TrafficMatrix({("A", "C"): 1e9 - shortfall})
        before = subset_checks()
        with trace.collect(SolveSpans()) as spans, trace.span("scheme.solve", solver="probe"):
            nodes, links = shrink_active_subset(
                topology, demands, 1.0, topology.nodes(), topology.link_keys(), [("A", "C")]
            )
        answered = [key for key, count in subset_checks().items() if count > before.get(key, 0)]
        assert answered == [answer]
        assert ("A", "C") not in links
        assert spans.attrs[0]["witness_seeded"] is True
        assert spans.attrs[0]["repairs"] == (answer == "repair")


def crossed_star():
    """Hub X joins A, B, C and D (1 Gb/s); a ring A-B-D-C-A (10 Gb/s) goes
    round it, two hops from A to D and from B to C, as through X."""
    topology = Topology("crossed-star")
    for name in "ABCDX":
        topology.add_node(name)
    for name in "ABCD":
        topology.add_link(name, "X", 1e9)
    for u, v in (("A", "B"), ("B", "D"), ("C", "D"), ("A", "C")):
        topology.add_link(u, v, 1e10)
    return topology


def test_a_node_crossed_by_two_origins_is_repaired_origin_by_origin():
    """A sends to D and B to C, both through X.  In arc order X's inflow is
    A->X then B->X and its outflow X->C then X->D; paired on the summed
    loads, A's flow would leave for C, B's for D.  Repaired per origin, each
    origin's flow still leaves its origin and reaches its own destination."""
    topology = crossed_star()
    index = topology.index()
    demands = TrafficMatrix({("A", "D"): 4e8, ("B", "C"): 6e8})
    session = FlowSession(topology, demands)
    arc_on = np.ones(index.num_arcs, dtype=bool)
    witness = np.zeros((2, index.num_arcs))
    for row, path, volume in ((0, ("A", "X", "D"), 4e8), (1, ("B", "X", "C"), 6e8)):
        for u, v in zip(path, path[1:], strict=False):
            witness[row, index.arc_index[(u, v)]] = volume
    assert_carries_the_demands(session, demands, arc_on, witness)
    hub = index.node_index["X"]
    node_on = np.ones(len(index.node_names), dtype=bool)
    node_on[hub] = False
    link_on = np.ones(len(index.link_keys), dtype=bool)
    link_on[index.node_links[hub]] = False
    fewer_arcs = index.arc_mask(node_on, link_on)
    arcs = index.link_arcs[index.node_links[hub]].ravel()
    repaired = session.repair(witness, fewer_arcs, arcs, hub)
    assert repaired is not None
    assert_carries_the_demands(session, demands, fewer_arcs, repaired)
    # The search takes the same route: its seed ties the ring paths through
    # X (the spokes come first in arc order), and X goes off by a repair.
    before = subset_checks()
    nodes, _ = shrink_active_subset(
        topology, demands, 1.0, topology.nodes(), topology.link_keys(), ["X"]
    )
    assert "X" not in nodes and subset_checks()["repair"] == before.get("repair", 0) + 1


def test_a_seed_that_does_not_fit_leaves_the_search_to_answer_as_before():
    """2.5 Gb/s from A to C fills A-C, the one fewest-hop path, to the bit:
    the seed needs a margin more and does not fit.  The search starts with
    no witness, and its first candidate goes to the LP as it did before."""
    topology = triangle()
    demands = TrafficMatrix({("A", "C"): 2.5e9})
    session = FlowSession(topology, demands)
    assert session.seed(np.ones(topology.index().num_arcs, dtype=bool)) is None
    before = subset_checks()
    with trace.collect(SolveSpans()) as spans, trace.span("scheme.solve", solver="probe"):
        nodes, links = shrink_active_subset(
            topology, demands, 1.0, topology.nodes(), topology.link_keys(), [("A", "B")], session
        )
    answered = [key for key, count in subset_checks().items() if count > before.get(key, 0)]
    assert answered == ["lp_feasible"] and ("A", "B") not in links
    assert spans.attrs[0]["witness_seeded"] is False and spans.attrs[0]["repairs"] == 0


# --------------------------------------------------------------------- #
# (b) Fewer solves, and the counts are visible
# --------------------------------------------------------------------- #
class SolveSpans(trace.SpanCollector):
    def __init__(self):
        self.attrs = []

    def on_exit(self, span):
        if span.name == "scheme.solve":
            self.attrs.append(dict(span.attrs))


def test_timeline_replay_spec_stays_under_the_solve_ceiling():
    spec = replay_scenario(11)
    solves_before, checks_before = feasibility_solves(), subset_checks()
    with trace.collect(SolveSpans()) as spans:
        result = run_scenario(spec)
    solves = feasibility_solves() - solves_before
    checks = {
        answer: count - checks_before.get(answer, 0) for answer, count in subset_checks().items()
    }
    assert len(result.times_s) == 16
    # 19 today; 204 with one LP per candidate, 128 without cuts, 68 without
    # seeds and repairs.
    assert 0 < solves <= 25
    # 458 today; 2 273 before a candidate's basis was kept from one interval
    # to the next, 963 without cuts, 595 without seeds and repairs.
    iterations = sum(attrs["lp_iterations"] for attrs in spans.attrs if "lp_iterations" in attrs)
    assert iterations <= 520
    assert checks["lp_feasible"] + checks["lp_infeasible"] == solves
    assert checks["witness"] > 0 and checks["disconnected"] > 0 and checks["cut"] > 0
    assert checks["repair"] > 0

    elastictree = [attrs for attrs in spans.attrs if attrs["solver"] == "ElasticTreeRuntime"]
    assert len(elastictree) == 16
    assert sum(attrs["lp_solves"] for attrs in elastictree) == solves
    assert sum(attrs["witness_skips"] for attrs in elastictree) == checks["witness"]
    assert sum(attrs["cut_refusals"] for attrs in elastictree) == checks["cut"]
    assert sum(attrs["repairs"] for attrs in elastictree) == checks["repair"]
    assert sum(attrs["witness_seeded"] for attrs in elastictree) > 0
    assert sum(attrs["cuts_learned"] for attrs in elastictree) > 0
    assert sum(attrs["lp_bases_restored"] for attrs in elastictree) >= 1
    greente = [attrs for attrs in spans.attrs if attrs["solver"] == "GreenTERuntime"]
    assert greente and not any("lp_solves" in attrs for attrs in greente)


# --------------------------------------------------------------------- #
# (c) Tied powers: the order does not follow the hash seed
# --------------------------------------------------------------------- #
_TIED_POWERS_SCRIPT = """
import json, random
from repro.optim import greedy_minimum_subset
from repro.power import CommoditySwitchPowerModel
from repro.topology import build_fattree
from repro.traffic import TrafficMatrix

topology = build_fattree(4)
rng = random.Random(2)
hosts = sorted(topology.hosts())
pairs = set()
while len(pairs) < 10:
    pairs.add(tuple(rng.sample(hosts, 2)))
demands = TrafficMatrix({pair: 4e8 for pair in sorted(pairs)})
solution = greedy_minimum_subset(topology, CommoditySwitchPowerModel(), demands)
print(json.dumps([sorted(solution.active_nodes), sorted(solution.active_links)]))
"""


_REPLAY_ANSWERS_SCRIPT = """
import json, sys
sys.path.insert(0, "benchmarks/harness")
from repro.obs import metrics
from repro.scenario.engine import run_scenario
from workloads import replay_scenario

run_scenario(replay_scenario(11))
family = metrics.counter("repro_subset_checks_total")
print(json.dumps(sorted((s["labels"]["answer"], s["value"]) for s in family.samples())))
"""


def test_the_answer_counts_of_a_replay_do_not_follow_the_hash_seed(run_under_hash_seeds):
    """Seeds and detours walk the adjacency and the segments in index order,
    never a set's: which answer each candidate gets is the same in every
    interpreter, not only which sets the search returns."""
    outputs = run_under_hash_seeds(["-c", _REPLAY_ANSWERS_SCRIPT])
    assert len(set(outputs)) == 1 and '"repair"' in outputs[0]


def test_tied_link_powers_do_not_follow_the_hash_seed(run_under_hash_seeds):
    """48 fat-tree links share two power values; the link phase used to sort
    the *set* of active links by power alone, which leaves ties in set order
    (three different active sets under these three hash seeds)."""
    _, link_power = element_power_coefficients(build_fattree(4), CommoditySwitchPowerModel())
    assert len(set(link_power.values())) < len(link_power)
    outputs = run_under_hash_seeds(["-c", _TIED_POWERS_SCRIPT], seeds="013")
    assert len(set(outputs)) == 1
