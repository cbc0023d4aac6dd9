"""Per-arc loads as one vector over ``Topology.index()``, against the dicts.

Every load, residual and utilisation computation in ``src/`` accumulates
into a vector in arc-index order through ``TopologyIndex.path_loads`` and
compares it with capacity through gathers over ``arc_capacity`` (maxima
through ``TopologyIndex.max_utilisation``).  The name-keyed loops they
replaced are kept here as the reference.  Pinned with ``==``, never
``approx``, on every shipped topology with random routings and matrices —
ε, zero and equal demands among them, so ties are exercised — with and
without failed links and nodes (a :class:`TopologyView`, which also allows
failover):

* ``link_loads`` zipped with ``index.arc_keys`` == the reference dict, and
  ``max_link_utilisation`` == the reference maximum;
* ECMP's equal shares through ``path_loads`` == the reference dict, and
  ``ecmp_max_utilisation`` == its maximum;
* ``activate_paths``' :class:`ActivationResult`, field by field;
* GreenTE's :class:`EnergyAwareSolution` (active sets, routing, ``power_w``,
  or the same :class:`InfeasibleError`);
* the stress-factor dict, in the same key order.
"""

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResponsePlan, activate_paths, stress_factors
from repro.core.planner import ActivationResult
from repro.exceptions import InfeasibleError, RoutingError
from repro.optim import greente_heuristic
from repro.optim.solution import EnergyAwareSolution, element_power_coefficients
from repro.power import CiscoRouterPowerModel, full_power, network_power
from repro.routing import (
    RoutingTable,
    ecmp_max_utilisation,
    equal_cost_paths,
    link_loads,
    max_link_utilisation,
)
from repro.routing.ksp import CandidatePaths
from repro.scenario.spec import TopologySpec
from repro.simulator import TopologyView
from repro.topology import Topology
from repro.traffic import TrafficMatrix

from test_calibration import SHIPPED_TOPOLOGIES  # noqa: I001

MODEL = CiscoRouterPowerModel()
K = 4


# --------------------------------------------------------------------- #
# The reference: the name-keyed loops the load vector replaced
# --------------------------------------------------------------------- #
def reference_link_loads(topology, routing, demands):
    loads: Dict[Tuple[str, str], float] = {key: 0.0 for key in topology.arc_keys()}
    for pair, demand in demands.items():
        if demand <= 0.0:
            continue
        path = routing.get(*pair)
        if path is None:
            continue
        for arc_key in path.arc_keys():
            if arc_key not in loads:
                raise RoutingError(f"path uses unknown arc {arc_key}")
            loads[arc_key] += demand
    return loads


def reference_max_utilisation(topology, loads):
    utilisations = [load / topology.arc(*key).capacity_bps for key, load in loads.items()]
    return max(utilisations, default=0.0)


def reference_ecmp_link_loads(topology, demands):
    loads: Dict[Tuple[str, str], float] = {key: 0.0 for key in topology.arc_keys()}
    for (origin, destination), demand in demands.items():
        if demand <= 0.0:
            continue
        paths = equal_cost_paths(topology, origin, destination)
        share = demand / len(paths)
        for path in paths:
            for arc_key in path.arc_keys():
                loads[arc_key] += share
    return loads


def reference_activate_paths(
    topology,
    power_model,
    plan,
    demands,
    utilisation_threshold,
    include_failover,
    failed_links,
    failed_nodes,
):
    tables = plan.tables(include_failover=include_failover)
    failed = failed_links or set()
    loads: Dict[Tuple[str, str], float] = {key: 0.0 for key in topology.arc_keys()}
    assignment = {}
    overloaded = []

    def usable(path):
        return not any(key in failed for key in path.link_keys())

    def fits(path, demand):
        for src, dst in path.arc_keys():
            capacity = topology.arc(src, dst).capacity_bps
            if loads[(src, dst)] + demand > capacity * utilisation_threshold + 1e-9:
                return False
        return True

    def add_load(path, demand):
        for arc_key in path.arc_keys():
            loads[arc_key] += demand

    ordered_pairs = sorted(
        (pair for pair in demands.pairs() if demands[pair] > 0.0),
        key=lambda pair: demands[pair],
        reverse=True,
    )
    for pair in ordered_pairs:
        demand = demands[pair]
        candidates = []
        for table_index, table in enumerate(tables):
            path = table.get(*pair)
            if path is not None and usable(path):
                candidates.append((table_index, path))
        if not candidates:
            overloaded.append(pair)
            continue
        placed = False
        for table_index, path in candidates:
            if fits(path, demand):
                assignment[pair] = table_index
                add_load(path, demand)
                placed = True
                break
        if not placed:

            def residual(entry):
                _, path = entry
                return min(
                    topology.arc(src, dst).capacity_bps - loads[(src, dst)]
                    for src, dst in path.arc_keys()
                )

            table_index, path = max(candidates, key=residual)
            assignment[pair] = table_index
            add_load(path, demand)
            overloaded.append(pair)

    active_nodes, active_links = plan.always_on_elements()
    active_nodes = set(active_nodes)
    active_links = set(active_links)
    for pair, table_index in assignment.items():
        if table_index == 0:
            continue
        path = tables[table_index].get(*pair)
        if path is None:
            continue
        active_nodes.update(path.nodes)
        active_links.update(path.link_keys())
    active_links -= failed
    active_nodes -= failed_nodes or set()

    breakdown = network_power(topology, power_model, active_nodes, active_links)
    baseline = full_power(topology, power_model).total_w
    max_utilisation = 0.0
    for (src, dst), load in loads.items():
        if load <= 0.0:
            continue
        utilisation = load / topology.arc(src, dst).capacity_bps
        max_utilisation = max(max_utilisation, utilisation)
    return ActivationResult(
        assignment=assignment,
        active_nodes=active_nodes,
        active_links=active_links,
        power_w=breakdown.total_w,
        power_percent=100.0 * breakdown.total_w / baseline if baseline > 0 else 0.0,
        max_utilisation=max_utilisation,
        overloaded_pairs=overloaded,
    )


def reference_greente(
    topology,
    power_model,
    demands,
    k,
    utilisation_limit,
    candidate_paths,
    fixed_on_nodes,
    allow_overload,
    ordering,
):
    pairs = demands.pairs()
    paths_of = candidate_paths.for_pairs(pairs, k)
    node_power, link_power = element_power_coefficients(topology, power_model)
    active_nodes = set(fixed_on_nodes or ())
    active_nodes |= {n for n in topology.nodes() if topology.node(n).always_powered}
    active_links = set()
    residual = {arc.key: arc.capacity_bps * utilisation_limit for arc in topology.arcs()}

    def marginal_power(path):
        cost = 0.0
        for node in path.nodes:
            if node not in active_nodes:
                cost += node_power[node]
        for key in path.link_keys():
            if key not in active_links:
                cost += link_power[key]
        return cost

    def fits(path, demand):
        return all(residual[arc] >= demand - 1e-9 for arc in path.arc_keys())

    chosen = {}
    if ordering == "demand":
        ordered = sorted(pairs, key=lambda pair: demands[pair], reverse=True)
    else:
        ordered = sorted(pairs)
    for pair in ordered:
        demand = demands[pair]
        candidates = paths_of[pair]
        feasible = [path for path in candidates if fits(path, demand)]
        if not feasible:
            if not allow_overload:
                raise InfeasibleError(f"pair {pair} fits on no candidate path")
            feasible = [
                max(candidates, key=lambda path: min(residual[a] for a in path.arc_keys()))
            ]
        best = min(
            feasible,
            key=lambda path: (marginal_power(path), path.num_hops, path.latency(topology)),
        )
        chosen[pair] = best
        active_nodes.update(best.nodes)
        active_links.update(best.link_keys())
        for arc in best.arc_keys():
            residual[arc] -= demand
    power = network_power(topology, power_model, active_nodes, active_links).total_w
    return EnergyAwareSolution(
        active_nodes=active_nodes,
        active_links=active_links,
        routing=RoutingTable(chosen, name="greente"),
        power_w=power,
        optimal=False,
        solver="greente-heuristic",
    )


def reference_stress_factors(topology, always_on_routing, pairs):
    flow_count = {key: 0 for key in topology.link_keys()}
    for pair in pairs:
        path = always_on_routing.get(*pair)
        if path is None:
            continue
        for key in path.link_keys():
            if key in flow_count:
                flow_count[key] += 1
    return {
        key: count / (topology.link(*key).capacity_bps / 1e9)
        for key, count in flow_count.items()
    }


# --------------------------------------------------------------------- #
# Random cases on the shipped topologies
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def shipped(name):
    """``(topology, candidate provider)``, built once per topology name."""
    topology = TopologySpec(name, params=SHIPPED_TOPOLOGIES[name]).build()
    return topology, CandidatePaths(topology)


#: How a case's demands are drawn: ε everywhere, equal (ties), zero mixed
#: into random magnitudes, or random magnitudes alone.
DEMAND_KINDS = ("epsilon", "equal", "zero", "random")


class Case:
    """One random draw: topology, pairs, their candidates and demands."""

    def __init__(self, name: str, seed: int, kind: str, num_pairs: int, scale: float):
        self.topology, self.provider = shipped(name)
        rng = np.random.default_rng(seed)
        routers = self.topology.routers()
        chosen = rng.choice(len(routers), size=(num_pairs, 2))
        self.pairs: List[Tuple[str, str]] = list(
            dict.fromkeys(
                (routers[a], routers[b]) for a, b in chosen.tolist() if a != b
            )
        ) or [(routers[0], routers[1])]
        self.candidates = self.provider.for_pairs(self.pairs, K)
        # A demand of the order of one arc's capacity: enough to cross the
        # SLO, overload some paths and leave others idle.
        capacity = float(np.median(self.topology.index().arc_capacity))
        if kind == "epsilon":
            values = np.full(len(self.pairs), 1.0)
        elif kind == "equal":
            values = np.full(len(self.pairs), scale * capacity / 4)
        else:
            values = rng.uniform(0.0, scale * capacity, size=len(self.pairs))
            if kind == "zero":
                values[rng.random(len(self.pairs)) < 0.4] = 0.0
        self.demands = TrafficMatrix(dict(zip(self.pairs, values.tolist(), strict=True)))
        self.rng = rng
        self.label = f"Case({name!r}, seed={seed}, {kind}, pairs={num_pairs}, scale={scale})"

    def __repr__(self) -> str:
        return self.label

    def routing(self, name: str = "random") -> RoutingTable:
        """One candidate per pair, drawn at random."""
        return RoutingTable(
            {
                pair: paths[int(self.rng.integers(len(paths)))]
                for pair, paths in self.candidates.items()
            },
            name=name,
        )

    def failed_links(self) -> set:
        """Up to three random links."""
        keys = self.topology.link_keys()
        count = int(self.rng.integers(1, 4))
        return {keys[int(i)] for i in self.rng.choice(len(keys), size=count, replace=False)}


cases = st.builds(
    Case,
    name=st.sampled_from(sorted(SHIPPED_TOPOLOGIES)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(DEMAND_KINDS),
    num_pairs=st.integers(min_value=1, max_value=30),
    scale=st.sampled_from([0.05, 0.5, 2.0]),
)


def _as_dict(topology, vector):
    return dict(zip(topology.index().arc_keys, vector.tolist(), strict=True))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_link_loads_vector_equals_the_name_keyed_dict(case):
    routing = case.routing()
    expected = reference_link_loads(case.topology, routing, case.demands)
    assert _as_dict(case.topology, link_loads(case.topology, routing, case.demands)) == expected
    assert max_link_utilisation(
        case.topology, routing, case.demands
    ) == reference_max_utilisation(case.topology, expected)


@settings(max_examples=30, deadline=None)
@given(cases)
def test_ecmp_shares_equal_the_name_keyed_dict(case):
    topology, demands = case.topology, case.demands
    expected = reference_ecmp_link_loads(topology, demands)
    paths, shares = [], []
    for (origin, destination), demand in demands.items():
        if demand > 0.0:
            pair_paths = equal_cost_paths(topology, origin, destination)
            paths.extend(pair_paths)
            shares.extend([demand / len(pair_paths)] * len(pair_paths))
    assert _as_dict(topology, topology.index().path_loads(paths, shares)) == expected
    assert ecmp_max_utilisation(topology, demands) == reference_max_utilisation(
        topology, expected
    )


@settings(max_examples=40, deadline=None)
@given(cases, st.booleans(), st.sampled_from([0.5, 0.9, 1.0]))
def test_activate_paths_equals_the_name_keyed_placement(case, with_failures, threshold):
    topology = case.topology
    plan = ResponsePlan.from_tables(
        topology,
        MODEL,
        always_on_table=case.routing("always-on"),
        on_demand_tables=[case.routing("on-demand-1"), case.routing("on-demand-2")],
        failover_table=case.routing("failover"),
    )
    view = (
        TopologyView(topology, case.failed_links(), [case.pairs[0][0]])
        if with_failures
        else None
    )
    arguments = (topology, MODEL, plan, case.demands)
    result = activate_paths(*arguments, utilisation_threshold=threshold, view=view)
    expected = reference_activate_paths(
        *arguments,
        utilisation_threshold=threshold,
        include_failover=with_failures,
        failed_links=set(view.unusable_links()) if with_failures else None,
        failed_nodes=set(view.failed_nodes) if with_failures else set(),
    )
    assert vars(result) == vars(expected)
    assert list(result.assignment.items()) == list(expected.assignment.items())
    assert type(result.max_utilisation) is float


@settings(max_examples=30, deadline=None)
@given(
    cases,
    st.sampled_from(["demand", "stable"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.5, 1.0]),
)
def test_greente_equals_the_name_keyed_residual_packing(
    case, ordering, allow_overload, fixed, limit
):
    fixed_on = case.routing().used_nodes() if fixed else None
    arguments = dict(
        k=K,
        utilisation_limit=limit,
        candidate_paths=case.provider,
        fixed_on_nodes=fixed_on,
        allow_overload=allow_overload,
        ordering=ordering,
    )
    try:
        expected = reference_greente(case.topology, MODEL, case.demands, **arguments)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            greente_heuristic(case.topology, MODEL, case.demands, **arguments)
        return
    solution = greente_heuristic(case.topology, MODEL, case.demands, **arguments)
    assert solution.active_nodes == expected.active_nodes
    assert solution.active_links == expected.active_links
    assert dict(solution.routing.items()) == dict(expected.routing.items())
    assert solution.power_w == expected.power_w


@settings(max_examples=30, deadline=None)
@given(cases, st.booleans())
def test_stress_factors_equal_the_name_keyed_count(case, subset):
    routing = case.routing()
    pairs = case.pairs[: max(1, len(case.pairs) // 2)] if subset else routing.pairs()
    factors = stress_factors(case.topology, routing, pairs=pairs if subset else None)
    expected = reference_stress_factors(case.topology, routing, pairs)
    # Same values in the same key order: ties in ``most_stressed_links``
    # break by it.
    assert list(factors.items()) == list(expected.items())


def test_activate_paths_keeps_the_slo_tolerance():
    """Seven equal shares of a 10 Mb/s arc's 50 % SLO overshoot it by
    9.3e-10 b/s in binary64: inside the ``+ 1e-9``, so all seven stay on the
    always-on path."""
    topology = Topology("shared-bottleneck")
    for name in ["hub", "alt", "sink", *(f"x{i}" for i in range(7))]:
        topology.add_node(name)
    topology.add_link("hub", "sink", capacity_bps=1e7)
    topology.add_link("hub", "alt", capacity_bps=1e9)
    topology.add_link("alt", "sink", capacity_bps=1e9)
    sources = [f"x{i}" for i in range(7)]
    for source in sources:
        topology.add_link(source, "hub", capacity_bps=1e9)
    pairs = [(source, "sink") for source in sources]
    plan = ResponsePlan.from_tables(
        topology,
        MODEL,
        always_on_table=RoutingTable({pair: [pair[0], "hub", "sink"] for pair in pairs}),
        on_demand_tables=[RoutingTable({pair: [pair[0], "hub", "alt", "sink"] for pair in pairs})],
    )
    demands = TrafficMatrix({pair: 1e7 * 0.5 / 7 for pair in pairs})
    result = activate_paths(topology, MODEL, plan, demands, utilisation_threshold=0.5)
    assert result.assignment == {pair: 0 for pair in pairs}
    assert vars(result) == vars(
        reference_activate_paths(
            topology,
            MODEL,
            plan,
            demands,
            utilisation_threshold=0.5,
            include_failover=False,
            failed_links=None,
            failed_nodes=None,
        )
    )


def test_link_loads_on_a_path_over_a_missing_arc_is_a_routing_error(diamond, diamond_demands):
    routing = RoutingTable({("a", "d"): ["a", "d"]})  # the diamond has no a-d arc
    with pytest.raises(RoutingError, match="unknown arc"):
        link_loads(diamond, routing, diamond_demands)
    with pytest.raises(RoutingError, match="unknown arc"):
        reference_link_loads(diamond, routing, diamond_demands)


def test_path_loads_adds_in_the_order_given(diamond):
    index = diamond.index()
    path = RoutingTable({("a", "d"): ["a", "b", "d"]}).path("a", "d")
    # In binary64, ((0 + 1) + 1e16) - 1e16 is 0.0; the reverse order gives 1.0.
    loads = index.path_loads([path] * 3, [1.0, 1e16, -1e16])
    assert loads[index.arc_index[("a", "b")]] == 0.0
    assert index.path_loads([path] * 3, [-1e16, 1e16, 1.0])[index.arc_index[("a", "b")]] == 1.0
    assert index.path_loads([], []).tolist() == [0.0] * index.num_arcs
    assert index.max_utilisation(np.zeros(index.num_arcs)) == 0.0
