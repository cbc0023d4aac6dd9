"""The path MILP on the index and the one HiGHS binding, against SciPy's ``milp``.

``optim.pathmilp.solve_path_milp`` assembles its model as array expressions
over ``Topology.index()`` and hands it to ``routing.highs.HighsModel``.  The
assembler it replaced — name-keyed dicts, one ``add_entry`` call per
coefficient, ``scipy.optimize.milp`` behind it — is kept here as the
reference.  Pinned:

* what reaches ``_Highs.passModel`` (CSC ``indptr`` / ``indices`` / ``data``,
  cost, row and column bounds, integrality) is ``np.array_equal`` to the
  reference's, and ``x``, gap, ``optimal`` and the extracted solution are
  ``==``, on every shipped topology under ε, gravity and peak
  demands, with nothing fixed, some or all elements fixed on, forbidden
  links, a latency bound and the relaxation; the arc MILP's model likewise on the example;
* the rows of the tighter model on small cases: one coupling row per
  (pair, link) a candidate crosses, no capacity row on ε demands (so HiGHS
  drops no coefficient), and a capacity row that can bind kept and obeyed;
* status handling: every status-returning call checked, only ``kInfeasible``
  is :class:`InfeasibleError`, a limit with an incumbent is a solution with
  ``optimal is False``, anything else (``kModelError`` included, which SciPy
  folded into "infeasible") is :class:`SolverError`, a rejected option is an
  error and never an unlimited solve;
* no file under ``src/`` imports ``scipy.optimize``, the binding included:
  it loads the HiGHS extension from its file.
"""

import math
import os
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import InfeasibleError, SolverError
from repro.obs import metrics, trace
from repro.optim import solve_arc_milp, solve_path_milp
from repro.optim import pathmilp
from repro.optim.pathmilp import (
    MAX_OBJECTIVE,
    MAX_WATT_DENOMINATOR,
    TIE_BITS,
    TIE_SEED,
    TIME_LIMIT_S,
    _filter_candidates,
)
from repro.optim.solution import EnergyAwareSolution, element_power_coefficients
from repro.power import CiscoRouterPowerModel, CommoditySwitchPowerModel, network_power
from repro.routing import highs
from repro.routing.ksp import CandidatePaths
from repro.routing.mcf import ConcurrentFlow
from repro.routing.ospf import ospf_delays
from repro.routing.paths import Path as RoutedPath
from repro.routing.paths import RoutingTable
from repro.topology.base import Topology, link_key
from repro.traffic import TrafficMatrix
from repro.units import mbps

from test_calibration import (  # noqa: I001
    REPO_ROOT,
    SHIPPED_TOPOLOGIES,
    base_matrix,
    example_traffic_specs,
)
from test_canonical_optimum import LinkWatts, Listed


# --------------------------------------------------------------------- #
# The reference: the loop assembler and SciPy's front end
# --------------------------------------------------------------------- #
def reference_solve_path_milp(
    topology,
    power_model,
    demands,
    k=3,
    utilisation_limit=1.0,
    relaxed=False,
    fixed_on_nodes=None,
    fixed_on_links=None,
    forbidden_links=None,
    latency_bound=None,
    solver_name="path-milp",
):
    """``(solution, x)`` of the assembler ``solve_path_milp`` replaced."""
    pairs = list(demands.pairs())
    forbidden_set = {link_key(u, v) for (u, v) in forbidden_links} if forbidden_links else None
    candidates = _filter_candidates(
        CandidatePaths(topology).for_pairs(pairs, k), forbidden_set, latency_bound, topology
    )

    node_power, link_power = element_power_coefficients(topology, power_model)
    nodes = topology.nodes()
    links = topology.link_keys()
    node_index = {name: position for position, name in enumerate(nodes)}
    link_index = {key: position for position, key in enumerate(links)}

    path_vars = []
    path_var_offset = {}
    for pair in pairs:
        for candidate_position in range(len(candidates[pair])):
            path_var_offset[(pair, candidate_position)] = len(path_vars)
            path_vars.append((pair, candidate_position))
    num_path_vars = len(path_vars)
    num_links = len(links)
    num_vars = num_path_vars + num_links + len(nodes)

    def y_var(link):
        return num_path_vars + link_index[link]

    def x_var(node):
        return num_path_vars + num_links + node_index[node]

    cost = np.zeros(num_vars)
    for key, power in link_power.items():
        cost[y_var(key)] = power
    for name, power in node_power.items():
        cost[x_var(name)] = power

    lower = np.zeros(num_vars)
    upper = np.ones(num_vars)
    fixed_nodes = set(fixed_on_nodes or ())
    fixed_links = {link_key(u, v) for (u, v) in (fixed_on_links or ())}
    for name in nodes:
        if topology.node(name).always_powered or name in fixed_nodes:
            lower[x_var(name)] = 1.0
    for key in sorted(fixed_links):
        if key in link_index:
            lower[y_var(key)] = 1.0

    rows, cols, vals = [], [], []
    constraint_lower, constraint_upper = [], []
    row_count = 0

    def add_entry(row, column, value):
        rows.append(row)
        cols.append(column)
        vals.append(value)

    for pair in pairs:
        for candidate_position in range(len(candidates[pair])):
            add_entry(row_count, path_var_offset[(pair, candidate_position)], 1.0)
        constraint_lower.append(1.0)
        constraint_upper.append(1.0)
        row_count += 1

    capacity_scale = max(arc.capacity_bps for arc in topology.arcs())
    reach = {arc.key: 0.0 for arc in topology.arcs()}
    for pair in pairs:
        if demands[pair] > 0.0:
            for arc_key in dict.fromkeys(a for path in candidates[pair] for a in path.arc_keys()):
                reach[arc_key] += demands[pair]
    arc_rows = {}
    for arc in topology.arcs():
        if reach[arc.key] <= arc.capacity_bps * utilisation_limit:
            continue  # the coupling rows below imply this arc's capacity
        arc_rows[arc.key] = row_count
        add_entry(
            row_count,
            y_var(link_key(arc.src, arc.dst)),
            -arc.capacity_bps * utilisation_limit / capacity_scale,
        )
        constraint_lower.append(-np.inf)
        constraint_upper.append(0.0)
        row_count += 1
    for pair in pairs:
        demand = demands[pair]
        if demand <= 0.0:
            continue
        for candidate_position, path in enumerate(candidates[pair]):
            column = path_var_offset[(pair, candidate_position)]
            for arc_key in path.arc_keys():
                if arc_key in arc_rows:
                    add_entry(arc_rows[arc_key], column, demand / capacity_scale)

    for pair in pairs:
        link_rows = {}
        for candidate_position, path in enumerate(candidates[pair]):
            column = path_var_offset[(pair, candidate_position)]
            for key in dict.fromkeys(path.link_keys()):
                if key not in link_rows:
                    link_rows[key] = row_count
                    add_entry(row_count, y_var(key), -1.0)
                    constraint_lower.append(-np.inf)
                    constraint_upper.append(0.0)
                    row_count += 1
                add_entry(link_rows[key], column, 1.0)

    for key in links:
        for endpoint in key:
            add_entry(row_count, y_var(key), 1.0)
            add_entry(row_count, x_var(endpoint), -1.0)
            constraint_lower.append(-np.inf)
            constraint_upper.append(0.0)
            row_count += 1

    for name in nodes:
        incident = [link.key for link in topology.incident_links(name)]
        if not incident or lower[x_var(name)] >= 1.0:
            continue
        add_entry(row_count, x_var(name), 1.0)
        for key in incident:
            add_entry(row_count, y_var(key), -1.0)
        constraint_lower.append(-np.inf)
        constraint_upper.append(0.0)
        row_count += 1

    matrix = sparse.csc_matrix((vals, (rows, cols)), shape=(row_count, num_vars))
    integrality = np.ones(num_vars)
    if relaxed:
        integrality[:num_path_vars] = 0.0
        objective = cost / max(cost.max(), 1.0)
    else:
        objective = reference_tie_broken_cost(pairs, candidates, cost, num_path_vars)
    result = reference_milp(
        objective,
        LinearConstraint(matrix, np.array(constraint_lower), np.array(constraint_upper)),
        integrality,
        Bounds(lower, upper),
        TIME_LIMIT_S,
    )
    if result.status == 2:
        raise InfeasibleError("the demand cannot be carried")
    assert result.x is not None, result.message

    solution = result.x
    active_links = {key for key in links if solution[y_var(key)] > 0.5}
    active_nodes = {name for name in nodes if solution[x_var(name)] > 0.5}
    chosen = {}
    for pair in pairs:
        best_position = max(
            range(len(candidates[pair])),
            key=lambda position, pair=pair: solution[path_var_offset[(pair, position)]],
        )
        chosen[pair] = candidates[pair][best_position]
    routing = RoutingTable(chosen, name=solver_name)
    active_nodes |= routing.used_nodes()
    active_links |= routing.used_links()
    return (
        EnergyAwareSolution(
            active_nodes=active_nodes,
            active_links=active_links,
            routing=routing,
            power_w=network_power(topology, power_model, active_nodes, active_links).total_w,
            optimal=bool(result.status == 0 and not relaxed),
            solver=solver_name,
            gap=float(result.mip_gap),
        ),
        solution,
    )


def reference_tie_broken_cost(pairs, candidates, cost, num_path_vars):
    """The path MILP's objective, written out: watts in whole steps of the
    largest step dividing every element's watts, times one more than the
    largest secondary total; a path's secondary is its hops over its pair's
    fewest, times one more than the largest total weighted rank, plus its
    position times ``len(pairs) - i`` for the ``i``-th pair.  All of it
    times one more than the largest total tie, plus each path's tie: the
    top bits of its column's SplitMix64 output, as many as keep the
    objective within ``MAX_OBJECTIVE / 16``."""
    watts = [
        Fraction(value).limit_denominator(MAX_WATT_DENOMINATOR)
        for value in cost[num_path_vars:]
    ]
    denominator = math.lcm(*(value.denominator for value in watts))
    step = Fraction(math.gcd(*(int(value * denominator) for value in watts)), denominator)
    units = [value / step for value in watts]
    weighted, excess = [], []
    for position, pair in enumerate(pairs):
        fewest = min(len(path.arc_keys()) for path in candidates[pair])
        weighted.append([rank * (len(pairs) - position) for rank in range(len(candidates[pair]))])
        excess.append([len(path.arc_keys()) - fewest for path in candidates[pair]])
    rank_span = 1 + sum(max(ranks) for ranks in weighted)
    secondary = [
        [rank_span * hops + rank for hops, rank in zip(more, ranks, strict=True)]
        for more, ranks in zip(excess, weighted, strict=True)
    ]
    scale = 1 + sum(max(values) for values in secondary)
    assert scale * (sum(units) + 1) <= MAX_OBJECTIVE  # no shipped case is rounded
    levels = 2**TIE_BITS
    while levels > 1 and (len(pairs) * (levels - 1) + 1) * scale * (sum(units) + 1) > (
        MAX_OBJECTIVE / 16
    ):
        levels //= 2
    ties, column = [], 0
    for values in secondary:
        columns = range(column, column + len(values))
        ties.append([splitmix64(c + 1) * levels // 2**64 for c in columns])
        column += len(values)
    spread = 1 + sum(max(values) for values in ties)
    flat = [
        float(spread * value + tie)
        for values, tied in zip(secondary, ties, strict=True)
        for value, tie in zip(values, tied, strict=True)
    ]
    return np.array(flat + [float(spread * scale * value) for value in units])


def splitmix64(n):
    """The *n*-th output of SplitMix64 seeded with ``TIE_SEED``."""
    state = (TIE_SEED + n * 0x9E3779B97F4A7C15) % 2**64
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) % 2**64
    return state ^ (state >> 31)


def reference_milp(objective, constraints, integrality, bounds, time_limit_s):
    """SciPy's ``milp`` with the options ``routing.highs.milp_options`` sets;
    it hands the one it does not know, feasibility jump, to HiGHS verbatim
    and warns."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
        return milp(
            c=objective,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options={
                "mip_rel_gap": 0.0,
                "time_limit": time_limit_s,
                "mip_heuristic_run_feasibility_jump": False,
            },
        )


#: The dense ``HighsLp`` vectors both front ends fill (beside the CSC matrix
#: and the integrality list), in comparison order.
MODEL_FIELDS = ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_")


@pytest.fixture
def handed_over(monkeypatch):
    """Every model passed to HiGHS (by either front end: SciPy's drives the
    same ``_Highs`` class) and every ``x`` the binding returned."""
    models, solutions = [], []
    real_pass, real_solve = highs._Highs.passModel, highs.HighsModel.solve

    def pass_model(instance, lp):
        matrix = lp.a_matrix_
        arrays = [np.array(part) for part in (matrix.start_, matrix.index_, matrix.value_)]
        arrays += [np.array(getattr(lp, name)) for name in MODEL_FIELDS]
        arrays.append(np.array([int(kind) for kind in lp.integrality_]))
        models.append(arrays)
        return real_pass(instance, lp)

    def solve(model):
        solutions.append(real_solve(model))
        return solutions[-1]

    monkeypatch.setattr(highs._Highs, "passModel", pass_model)
    monkeypatch.setattr(highs.HighsModel, "solve", solve)
    return models, solutions


def fields(solution):
    """Everything a solution says, the routing table by content."""
    return tuple((vars(solution) | {"routing": dict(solution.routing.items())}).values())


def assert_same_model(handed_over, reference, routine):
    """Run *reference* then *routine*: same arrays into HiGHS, same ``x`` out
    of it, same solution; ``False`` when both find the case infeasible."""
    models, solutions = handed_over
    del models[:], solutions[:]
    try:
        expected, expected_x = reference()
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            routine()
        expected = None
    else:
        found = routine()
        assert np.array_equal(solutions[-1], expected_x)
        assert fields(found) == fields(expected)
    theirs, ours = models
    for mine, other in zip(ours, theirs, strict=True):
        assert mine.dtype.kind == other.dtype.kind and np.array_equal(mine, other)
    return expected is not None


def demand_cases(topology, base):
    """The ε matrix, a gravity load at a tenth of what *topology* carries
    split over any paths, and one at 40 % of it (the peak; about what three
    unsplit candidates per pair still carry)."""
    largest = ConcurrentFlow(topology, base).max_scale()
    return [
        TrafficMatrix.epsilon(base.pairs()),
        base.scaled(0.1 * largest),
        base.scaled(0.4 * largest),
    ]


def variants(topology, demands):
    """Keyword sets covering what changes rows, bounds or integrality."""
    links = topology.link_keys()
    kept_on = links[::3]
    bound = {
        pair: 1.25 * delay for pair, delay in ospf_delays(topology, pairs=demands.pairs()).items()
    }
    return [
        {},
        {
            "fixed_on_links": [(v, u) for u, v in kept_on] + [("no", "link")],
            "fixed_on_nodes": sorted({name for key in kept_on for name in key}) + ["nowhere"],
            "utilisation_limit": 0.8,
        },
        {"fixed_on_links": links, "fixed_on_nodes": topology.nodes()},  # no row of family (e)
        {"forbidden_links": links[1::4]},
        {"latency_bound": bound},
        {"relaxed": True, "k": 2},
    ]


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_model_and_solution_equal_the_loop_assembler_and_milp(name, handed_over):
    power_model = CommoditySwitchPowerModel() if name == "fattree" else CiscoRouterPowerModel()
    topology, base = base_matrix(
        {"name": name, "params": SHIPPED_TOPOLOGIES[name]}, example_traffic_specs()[0]
    )
    solved = 0
    for demands in demand_cases(topology, base):
        for options in variants(topology, demands):
            solved += assert_same_model(
                handed_over,
                lambda: reference_solve_path_milp(topology, power_model, demands, **options),
                lambda: solve_path_milp(topology, power_model, demands, **options),
            )
    assert solved >= 10  # three candidates do not carry every load on every topology


def test_arc_model_reaches_highs_as_milp_handed_it_over(handed_over, example_topology, cisco_model):
    """The arc MILP's model, assembled over the index from the flow LP's
    structure and the path MILP's on/off block, reaches HiGHS as ``milp``
    hands it over — explicit zeros (a pair with no demand) included."""
    topology = example_topology
    demands = TrafficMatrix({("A", "K"): 2e6, ("C", "K"): 0.0, ("B", "H"): 1e6})
    models, _ = handed_over
    solution = solve_arc_milp(topology, cisco_model, demands, fixed_on_links=[("A", "B")])
    start, index, value, cost, lower, upper, row_lower, row_upper, integrality = models[0]
    matrix = sparse.csc_array((value, index, start), shape=(len(row_upper), len(cost)))
    result = reference_milp(
        cost,
        LinearConstraint(sparse.csc_matrix(matrix), row_lower, row_upper),
        integrality,
        Bounds(lower, upper),
        120.0,
    )
    for mine, other in zip(*models, strict=True):
        assert mine.dtype.kind == other.dtype.kind and np.array_equal(mine, other)
    assert solution.optimal is (result.status == 0) and solution.gap == result.mip_gap


# --------------------------------------------------------------------- #
# The rows of the tighter model
# --------------------------------------------------------------------- #
def handed_matrix(model):
    """The dense constraint matrix of one model *handed_over* recorded."""
    start, index, value, cost, _, _, _, row_upper, _ = model
    return sparse.csc_array((value, index, start), shape=(len(row_upper), len(cost))).toarray()


def always_on_network(name, links, capacity_bps):
    """A topology of always-powered nodes joined by *links*."""
    topology = Topology(name)
    for node in sorted({node for link in links for node in link}):
        topology.add_node(node, always_powered=True)
    for u, v in links:
        topology.add_link(u, v, capacity_bps=capacity_bps)
    return topology


def test_a_link_shared_by_a_pair_s_candidates_gets_one_coupling_row(handed_over):
    """``s-a-t`` and ``s-a-b-t`` both cross ``s-a``: one row couples both
    candidates to it, and the four links a candidate crosses get four rows
    (five hops), in the order of their first hop."""
    links = [("s", "a"), ("a", "t"), ("a", "b"), ("b", "t")]
    topology = always_on_network("shared", links, mbps(100))
    candidates = [RoutedPath(("s", "a", "t")), RoutedPath(("s", "a", "b", "t"))]
    solve_path_milp(
        topology,
        LinkWatts({key: 10.0 for key in topology.link_keys()}),
        TrafficMatrix.epsilon([("s", "t")]),
        k=2,
        candidate_paths=Listed({("s", "t"): candidates}),
    )
    matrix = handed_matrix(handed_over[0][0])
    coupling = matrix[1:][matrix[1:, :2].any(axis=1)]
    link_column = {key: 2 + position for position, key in enumerate(topology.index().link_keys)}
    assert coupling[:, :2].tolist() == [[1, 1], [1, 0], [0, 1], [0, 1]]
    assert [np.flatnonzero(row[2:] == -1)[0] + 2 for row in coupling] == [
        link_column[link_key(*link)] for link in links
    ]


def test_an_epsilon_model_has_no_capacity_row_and_highs_ignores_no_coefficient(
    handed_over, capfd, monkeypatch, geant, cisco_model
):
    """ε demands never bind a capacity: every coefficient is ±1, and HiGHS,
    with its log on, drops none (it dropped their 1e-10 capacity entries)."""
    pairs = [(u, v) for u in geant.nodes()[:8] for v in geant.nodes()[:8] if u != v]
    loud = (("log_to_console", True), *highs.milp_options(TIME_LIMIT_S)[1:])
    monkeypatch.setattr(pathmilp, "milp_options", lambda limit_s: loud)
    capfd.readouterr()
    solve_path_milp(geant, cisco_model, TrafficMatrix.epsilon(pairs))
    log = capfd.readouterr().out
    assert "Running HiGHS" in log and "ignored" not in log
    assert set(np.unique(handed_matrix(handed_over[0][0]))) == {-1.0, 0.0, 1.0}


def test_a_capacity_row_that_can_bind_stays_and_the_routing_respects_it(handed_over):
    """Two 60 Mb/s pairs reach ``t`` over ``a`` (1 W a link) or ``b`` (10 W):
    together they would exceed the 100 Mb/s into ``t`` either way, so both
    of those arcs keep their rows (and no other does), and the pairs split.
    At 40 Mb/s each no row can bind, and both take ``a``."""
    links = [("u", "a"), ("v", "a"), ("a", "t"), ("u", "b"), ("v", "b"), ("b", "t")]
    topology = always_on_network("bottleneck", links, mbps(100))
    watts = LinkWatts({link_key(u, v): 1.0 if "a" in (u, v) else 10.0 for u, v in links})
    pairs = [("u", "t"), ("v", "t")]
    listed = Listed(
        {(x, "t"): [RoutedPath((x, "a", "t")), RoutedPath((x, "b", "t"))] for x, _ in pairs}
    )
    models, _ = handed_over
    middles = {}
    for volume in (mbps(60), mbps(40)):
        demands = TrafficMatrix({pair: volume for pair in pairs})
        solution = solve_path_milp(topology, watts, demands, k=2, candidate_paths=listed)
        index = topology.index()
        loads = index.path_loads(
            [solution.routing.path(*pair) for pair in pairs], [volume] * len(pairs)
        )
        assert index.max_utilisation(loads) <= 1.0
        middles[volume] = [solution.routing.path(*pair).nodes[1] for pair in pairs]
        matrix = handed_matrix(models[-1])
        capacity = matrix[np.isclose(matrix[:, :4], 0.6).any(axis=1)]
        assert len(capacity) == (2 if volume == mbps(60) else 0)
        y_columns = {4 + position: key for position, key in enumerate(index.link_keys)}
        assert sorted(y_columns[int(np.flatnonzero(row[4:10])[0]) + 4] for row in capacity) == (
            [("a", "t"), ("b", "t")] if volume == mbps(60) else []
        )
    assert middles == {mbps(60): ["a", "b"], mbps(40): ["a", "a"]}


# --------------------------------------------------------------------- #
# Status handling of the MILP half of the binding
# --------------------------------------------------------------------- #
@pytest.fixture
def solve_geant(geant, cisco_model):
    demands = TrafficMatrix.epsilon([("DE", "FR"), ("UK", "IT"), ("ES", "PL")])
    return lambda **options: solve_path_milp(geant, cisco_model, demands, **options)


def force_status(monkeypatch, status):
    monkeypatch.setattr(
        highs._Highs, "getModelStatus", lambda self: getattr(highs.HighsModelStatus, status)
    )


def count_runs(monkeypatch):
    calls, real = [], highs._Highs.run

    def run(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(highs._Highs, "run", run)
    return calls


@pytest.mark.parametrize("method", ["setOptionValue", "passModel", "run"])
def test_every_status_returning_call_of_a_milp_is_checked(monkeypatch, solve_geant, method):
    expected = solve_geant()
    monkeypatch.setattr(highs._Highs, method, lambda self, *args: highs.HighsStatus.kError)
    with pytest.raises(SolverError, match=f"HiGHS {method} returned kError"):
        solve_geant()
    monkeypatch.undo()
    assert fields(solve_geant()) == fields(expected)  # nothing of the failed instance is left


def test_only_infeasible_is_an_infeasible_error(monkeypatch, solve_geant):
    force_status(monkeypatch, "kInfeasible")
    with pytest.raises(InfeasibleError, match="candidate-path restriction"):
        solve_geant()


@pytest.mark.parametrize(
    ("status", "message"),
    [
        ("kModelError", "Model error"),
        ("kUnboundedOrInfeasible", "Primal infeasible or unbounded"),
        ("kUnbounded", "Unbounded"),
        ("kSolveError", "Solve error"),
    ],
)
def test_any_other_status_is_a_solver_error(monkeypatch, solve_geant, status, message):
    force_status(monkeypatch, status)
    with pytest.raises(SolverError, match=message) as raised:
        solve_geant()
    assert not isinstance(raised.value, InfeasibleError)


@pytest.mark.parametrize("status", ["kTimeLimit", "kIterationLimit", "kSolutionLimit"])
def test_a_limit_returns_the_incumbent_or_raises_without_one(monkeypatch, solve_geant, status):
    proven = solve_geant()
    assert proven.optimal is True
    force_status(monkeypatch, status)
    incumbent = solve_geant()
    assert incumbent.optimal is False
    assert fields(incumbent) == fields(proven)[:4] + (False,) + fields(proven)[5:]

    real_info = highs._Highs.getInfo

    def no_incumbent(instance):
        info = real_info(instance)
        info.objective_function_value = highs.kHighsInf
        return info

    monkeypatch.setattr(highs._Highs, "getInfo", no_incumbent)
    with pytest.raises(SolverError, match="limit"):
        solve_geant()


def test_a_rejected_option_is_an_error_not_an_unlimited_solve(monkeypatch, solve_geant):
    """SciPy's front end warned ``Invalid option value`` and solved with no
    limit at all; the limit is a constant now, this is the backstop."""
    runs = count_runs(monkeypatch)
    monkeypatch.setattr(pathmilp, "TIME_LIMIT_S", -1.0)
    with pytest.raises(SolverError, match="setOptionValue returned kError"):
        solve_geant()
    assert not runs


def test_milp_counters_and_span_attributes(solve_geant):
    solves = metrics.counter("repro_milp_solves_total").labels(kind="path")
    nodes = metrics.counter("repro_milp_nodes_total")
    lp_models = metrics.counter("repro_mcf_models_total")
    before = (solves.value, nodes.value, lp_models.value)

    class Exited(trace.SpanCollector):
        attrs = None

        def on_exit(self, span):
            Exited.attrs = dict(span.attrs)

    with trace.collect(Exited()), trace.span("scheme.solve"):
        solve_geant()
        solve_geant(relaxed=True)
    assert solves.value - before[0] == 2
    assert lp_models.value == before[2]  # a MILP is not one of the flow LP's models
    assert Exited.attrs["mip_nodes"] == nodes.value - before[1] >= 1
    assert Exited.attrs["mip_gap"] >= 0.0


# --------------------------------------------------------------------- #
# One binding in the tree
# --------------------------------------------------------------------- #
def test_only_the_binding_module_imports_scipy_optimize():
    """Not even the binding: it loads the extension from its file (the
    binding-order tests in ``tests/test_mcf_session.py`` show it and a later
    ``import scipy.optimize`` share one module)."""
    importers = {}
    for folder, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in (name for name in files if name.endswith(".py")):
            with open(os.path.join(folder, name), encoding="utf-8") as stream:
                source = stream.read()
            found = re.findall(r"^\s*(?:from|import)\s+(scipy\.optimize\S*)", source, re.M)
            if found:
                importers[name] = found
    assert importers == {}
