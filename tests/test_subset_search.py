"""Subset-search identity: the witness-flow routine returns the plain loop's sets.

``greedy_minimum_subset`` and ``lp_relaxation_with_rounding`` hand their
switch-off order to one routine, ``optim.subset.shrink_active_subset``, that
keeps the last feasible LP's arc loads as a witness and answers "can this
element go?" without a solver when the witness does not touch it.  The loop it
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
  a pair that is not a link is named in the error;
* one replay of the benchmark harness's ``timeline_replay`` spec solves at
  most 140 feasibility LPs (204 with the plain loop) in at most 1 300
  simplex iterations (2 273 before a candidate's basis was kept between
  intervals), and the counts are on the ``scheme.solve`` spans and in
  ``repro_subset_checks_total``;
* tied link powers (a fat-tree under the commodity model) give one active
  set under every ``PYTHONHASHSEED``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleError, UnknownArcError, UnknownNodeError
from repro.obs import metrics, trace
from repro.optim import (
    element_power_coefficients,
    greedy_minimum_subset,
    lp_relaxation_with_rounding,
    solve_path_milp,
)
from repro.optim.subset import shrink_active_subset
from repro.power import CiscoRouterPowerModel, CommoditySwitchPowerModel, network_power
from repro.routing.mcf import ConcurrentFlow, FlowSession
from repro.scenario.engine import build_scenario, run_scenario
from repro.simulator.failures import TopologyView
from repro.topology import build_fattree, random_connected_topology
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


def test_a_session_carried_across_trace_intervals_answers_as_fresh_ones(cisco_model):
    """What ElasticTree's runtime does over a replay: one session per
    topology object, kept from one interval to the next, so a candidate asked
    again at the same arcs starts from the basis its last solve ended with.
    Twelve GÉANT trace intervals — four plain, four on the DE–FR failure view
    (its own topology object) with the restricted matrices, four surged
    1.5x — and each gives what a fresh search gives."""
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

    # Another origin set is another model: no basis of the old one is restored.
    session = sessions[id(geant)]
    first = matrices[0].origins()[0]
    other = matrices[0].restricted_to(p for p in matrices[0].pairs() if p[0] != first)
    restored = session.bases_restored
    found = greedy_minimum_subset(geant, cisco_model, other, 0.9, session)
    assert found.active_links == greedy_minimum_subset(geant, cisco_model, other, 0.9).active_links
    assert session.models_built == 2 and session.bases_restored == restored


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
    assert 0 < solves <= 140  # 204 with one LP per candidate
    # 2 273 before a candidate's basis was kept from one interval to the next.
    iterations = sum(attrs["lp_iterations"] for attrs in spans.attrs if "lp_iterations" in attrs)
    assert iterations <= 1_300
    assert checks["lp_feasible"] + checks["lp_infeasible"] == solves
    assert checks["witness"] > 0 and checks["disconnected"] > 0

    elastictree = [attrs for attrs in spans.attrs if attrs["solver"] == "ElasticTreeRuntime"]
    assert len(elastictree) == 16
    assert sum(attrs["lp_solves"] for attrs in elastictree) == solves
    assert sum(attrs["witness_skips"] for attrs in elastictree) == checks["witness"]
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


def test_tied_link_powers_do_not_follow_the_hash_seed(run_under_hash_seeds):
    """48 fat-tree links share two power values; the link phase used to sort
    the *set* of active links by power alone, which leaves ties in set order
    (three different active sets under these three hash seeds)."""
    _, link_power = element_power_coefficients(build_fattree(4), CommoditySwitchPowerModel())
    assert len(set(link_power.values())) < len(link_power)
    outputs = run_under_hash_seeds(["-c", _TIED_POWERS_SCRIPT], seeds="013")
    assert len(set(outputs)) == 1
