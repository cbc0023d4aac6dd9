"""The flow-LP session of ``routing/mcf.py`` against ``scipy.optimize.linprog``.

``solve_mcf`` and the max-concurrent-flow LP used to hand their LP to
``linprog(method="highs")``; they now drive SciPy's vendored HiGHS binding
themselves, through a :class:`~repro.routing.mcf.FlowSession` or a
:class:`~repro.routing.mcf.ConcurrentFlow` that keeps the model between
solves.  The ``linprog`` formulation is kept here as the reference.  Pinned:

* the binding exposes every name the session uses (the guard that replaces a
  fallback path);
* a fresh solve returns ``linprog``'s numbers ``==`` — ``arc_loads``,
  ``max_utilisation``, ``total_flow_bps`` and ``λ*`` — on every shipped
  topology under the traffic of ``examples/*.json`` at a feasible, a
  near-limit and an infeasible share of the largest load;
* the masked connectivity walk over the index answers as the name-keyed
  walk it replaced (kept here) on random masks and demand sets;
* a session driven through random off/on sequences — and retargeted through
  random demand sets in between — answers ``feasible`` as a fresh session on
  the same sets and demands does after every step;
* a solver outcome other than optimal / infeasible raises ``SolverError``
  naming HiGHS's status, and a session that raised takes no further calls;
* an infeasible LP teaches the session's cut pool the node set its dual ray
  points at, which refuses the same question under later demands while
  they still exceed the cut; without a ray it learns nothing;
* the iteration counts are on ``scheme.solve`` spans and in
  ``repro_mcf_simplex_iterations_total``, one spec replayed twice in one
  process gives one digest, and no session outlives its run.
"""

import functools
import gc
import os
import subprocess
import sys
import weakref

import networkx as nx
import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.campaign import canonical_result_dict
from repro.exceptions import SolverError
from repro.obs import metrics, trace
from repro.routing import highs, mcf
from repro.routing.mcf import ConcurrentFlow, FlowSession, MCFResult, solve_mcf
from repro.scenario.engine import run_scenario
from repro.topology import Topology, link_key, random_connected_topology
from repro.traffic import TrafficMatrix, all_pairs

from test_calibration import (  # noqa: I001
    REPO_ROOT,
    SHIPPED_TOPOLOGIES,
    base_matrix,
    example_traffic_specs,
)
from nx_reference import to_networkx
from test_subset_search import SolveSpans, feasibility_solves
from workloads import replay_scenario


# --------------------------------------------------------------------- #
# The reference: the LP as linprog was given it
# --------------------------------------------------------------------- #
def reference_within(nodes, arcs, active_nodes, active_links):
    """Those of *nodes* and *arcs* that lie within the active name sets, in
    order (``routing/mcf.py``'s ``_within`` before the index masks)."""
    if active_nodes is not None:
        allowed = set(active_nodes)
        nodes = [node for node in nodes if node in allowed]
    node_set = set(nodes)
    link_keys = None if active_links is None else {link_key(u, v) for (u, v) in active_links}
    arcs = [
        arc
        for arc in arcs
        if arc.src in node_set
        and arc.dst in node_set
        and (link_keys is None or arc.link_key in link_keys)
    ]
    return nodes, arcs


def reference_connected(nodes, arcs, positive):
    """Whether every pair of *positive* has its endpoints in *nodes* and a
    directed path over *arcs*: one name-keyed walk per origin
    (``routing/mcf.py``'s ``_connected`` before the index masks)."""
    if not {node for pair, _ in positive for node in pair} <= set(nodes):
        return False
    adjacency = {}
    for arc in arcs:
        adjacency.setdefault(arc.src, []).append(arc.dst)
    reachable = {}
    for (origin, destination), _demand in positive:
        if origin not in reachable:
            seen = {origin}
            frontier = [origin]
            while frontier:
                for neighbour in adjacency.get(frontier.pop(), ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            reachable[origin] = seen
        if destination not in reachable[origin]:
            return False
    return True


def reference_demands_connected(topology, demands, active_nodes=None, active_links=None):
    nodes, arcs = reference_within(topology.nodes(), topology.arcs(), active_nodes, active_links)
    return reference_connected(nodes, arcs, mcf._positive_demands(demands))


def reference_lp(topology, demands, active_nodes=None, active_links=None):
    """``(arc is on, positive demands, lp)``; the LP spans every arc of the
    topology and is ``None`` if no flow can exist over the arcs that are on."""
    nodes, arcs = reference_within(topology.nodes(), topology.arcs(), active_nodes, active_links)
    on_keys = {arc.key for arc in arcs}
    on = np.array([key in on_keys for key in topology.arc_keys()], dtype=bool)
    positive = mcf._positive_demands(demands)
    if not positive or not arcs or not reference_connected(nodes, arcs, positive):
        return on, positive, None
    return on, positive, mcf._flow_lp(topology.index(), positive)


def solve_fresh(topology, demands, utilisation_limit=1.0, active_nodes=None, active_links=None):
    """A fresh session's first solve on the active name sets (``None``: all)."""
    index = topology.index()
    return FlowSession(topology, demands, utilisation_limit).solve(
        index.node_mask(active_nodes), index.link_mask(active_links)
    )


def reference_solve_mcf(
    topology, demands, utilisation_limit=1.0, active_nodes=None, active_links=None
):
    on, positive, lp = reference_lp(topology, demands, active_nodes, active_links)
    if not positive:
        return MCFResult(True, 0.0, np.zeros(len(on)), 0.0)
    if lp is None:
        return MCFResult(False, float("inf"), np.zeros(0), 0.0)
    result = linprog(
        np.ones(lp.a_ub.shape[1]),
        A_ub=lp.a_ub,
        b_ub=lp.capacity_rhs(utilisation_limit),
        A_eq=lp.a_eq,
        b_eq=lp.eq_rhs,
        # An arc that is off keeps its columns, with upper bound 0.
        bounds=np.column_stack(
            (np.zeros(lp.a_ub.shape[1]), np.tile(np.where(on, np.inf, 0.0), len(lp.origins)))
        ),
        method="highs",
    )
    if result.status == 2:  # infeasible
        return MCFResult(False, float("inf"), np.zeros(0), 0.0)
    assert result.success, result.message
    loads = np.zeros(len(on))
    for origin_flows in result.x.reshape(len(lp.origins), len(on)):
        loads += origin_flows
    loads_bps = loads * lp.scale
    return MCFResult(
        True,
        float(np.max(loads_bps / lp.capacities_bps)),
        loads_bps,
        float(mcf.pairwise_sum(result.x)) * lp.scale,
    )


def assert_same_result(result, expected, context=None):
    """Every field ``==``, the arc loads element for element."""
    assert (result.feasible, result.max_utilisation, result.total_flow_bps) == (
        expected.feasible,
        expected.max_utilisation,
        expected.total_flow_bps,
    ), context
    assert np.array_equal(result.arc_loads, expected.arc_loads), context


def reference_max_concurrent_flow(topology, demands):
    on, positive, lp = reference_lp(topology, demands)
    if not positive:
        return float("inf")
    if lp is None:
        return 0.0
    num_rows, num_flows = lp.a_eq.shape
    cost = np.zeros(num_flows + 1)
    cost[-1] = -1.0
    result = linprog(
        cost,
        A_ub=sparse.hstack([lp.a_ub, sparse.coo_matrix((len(on), 1))]),
        b_ub=lp.capacity_rhs(1.0),
        A_eq=sparse.hstack([lp.a_eq, sparse.coo_matrix(-lp.eq_rhs[:, None])]),
        b_eq=np.zeros(num_rows),
        bounds=(0, None),
        method="highs",
    )
    assert result.success, result.message
    return float(result.x[-1])


# --------------------------------------------------------------------- #
# The binding guard: one private module, every name the session uses.
# Each check runs in a fresh interpreter that never imports scipy.optimize,
# as the library loads the binding: from its extension file.
# --------------------------------------------------------------------- #
def fresh_interpreter(script, *args):
    """The stdout lines of ``python -c script args`` with ``src/`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_BINDING_GUARD_SCRIPT = """
import sys
from repro.routing import highs
_core = sys.modules[highs.BINDING]
assert highs._core is _core
for name in ("_Highs", "HighsLp", "MatrixFormat", "HighsModelStatus", "HighsStatus"):
    assert hasattr(_core, name), name
assert _core.kHighsInf == float("inf")
for method in (
    "setOptionValue",
    "passModel",
    "changeColsBounds",
    "changeRowBounds",
    "run",
    "getInfo",
    "getModelStatus",
    "modelStatusToString",
    "getSolution",
    "getDualRay",
):
    assert callable(getattr(_core._Highs, method)), method
assert hasattr(_core.HighsLp(), "a_matrix_")
assert hasattr(_core._Highs().getInfo(), "simplex_iteration_count")
# The cut margins of routing/mcf.py are built on this default, which no
# option of LINPROG_OPTIONS changes.
tolerance = _core._Highs().getOptionValue("primal_feasibility_tolerance")[1]
assert tolerance == highs.PRIMAL_FEASIBILITY_TOLERANCE, tolerance
assert "primal_feasibility_tolerance" not in dict(highs.LINPROG_OPTIONS)
for status in ("kOptimal", "kInfeasible"):
    assert hasattr(_core.HighsModelStatus, status)
assert _core.MatrixFormat.kColwise is not None and _core.HighsStatus.kError is not None
print("scipy.optimize" in sys.modules)
"""


def test_scipy_exposes_the_highs_binding_the_session_drives():
    assert fresh_interpreter(_BINDING_GUARD_SCRIPT) == ["False"]


_MISSING_BINDING_SCRIPT = """
import sys, types
sys.modules["scipy.optimize._highspy._core"] = types.ModuleType("scipy.optimize._highspy._core")
try:
    import repro.routing.highs
except ImportError as error:
    print(error)
print("scipy.optimize" in sys.modules)
"""


def test_a_scipy_without_the_binding_is_one_import_error_line():
    line, optimize_loaded = fresh_interpreter(_MISSING_BINDING_SCRIPT)
    assert "scipy.optimize._highspy._core" in line
    assert "verified on SciPy 1.17.1" in line and f"SciPy {scipy.__version__}" in line
    assert optimize_loaded == "False"


_MOVED_EXTENSION_SCRIPT = """
import sys
import scipy
scipy.__file__ = sys.argv[1]
try:
    import repro.routing.highs
except ImportError as error:
    print(error)
"""


def test_a_scipy_without_the_extension_file_is_the_same_import_error_line(tmp_path):
    """What the direct load costs: it depends on where SciPy keeps the file
    (``optimize/_highspy/`` since 1.15, ``setup.py``'s floor)."""
    (line,) = fresh_interpreter(_MOVED_EXTENSION_SCRIPT, str(tmp_path / "__init__.py"))
    assert "scipy.optimize._highspy._core" in line and str(tmp_path) in line
    assert "verified on SciPy 1.17.1" in line and f"SciPy {scipy.__version__}" in line


_BINDING_ORDER_SCRIPT = """
import sys
import numpy as np
from scipy import sparse

if sys.argv[1] == "binding-first":
    from repro.routing import highs
    from scipy.optimize import linprog
else:
    from scipy.optimize import linprog
    from repro.routing import highs
import scipy.optimize._highspy._core as imported

loaded = [m for m in list(sys.modules.values()) if getattr(m, "__name__", None) == highs.BINDING]
assert loaded == [highs._core] and imported is highs._core, loaded
# max x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  x, y >= 0:  (1.6, 1.2)
expected = np.array([1.6, 1.2])
by_linprog = linprog([-1.0, -1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]], b_ub=[4.0, 6.0], method="highs")
model = highs.HighsModel(
    np.array([-1.0, -1.0]),
    sparse.csc_array(np.array([[1.0, 2.0], [3.0, 1.0]])),
    np.full(2, -np.inf),
    np.array([4.0, 6.0]),
    np.zeros(2),
    np.full(2, np.inf),
    highs.LINPROG_OPTIONS,
)
by_model = model.solve()
assert np.allclose(by_linprog.x, expected) and np.allclose(by_model, expected)
assert np.array_equal(by_linprog.x, by_model) and model.objective == by_linprog.fun
print("ok")
"""


@pytest.mark.parametrize("order", ["binding-first", "scipy-optimize-first"])
def test_the_binding_and_scipy_optimize_share_one_extension_module(order):
    """Whichever loads first, ``sys.modules`` holds one ``_core``, and both
    ``linprog`` and a :class:`HighsModel` solve through it."""
    assert fresh_interpreter(_BINDING_ORDER_SCRIPT, order) == ["ok"]


# --------------------------------------------------------------------- #
# (a) A fresh solve is linprog's, float for float
# --------------------------------------------------------------------- #
#: Shares of the largest load the topology carries: fits with room, sits at
#: the limit (λ* is exact only to the solver's tolerances, so this one may
#: fall either side — on the same side for both), does not fit.
SHARES = (0.5, 1.0, 1.3)


@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_fresh_solves_equal_linprog_on_shipped_topologies(name):
    topology_section = {"name": name, "params": SHIPPED_TOPOLOGIES[name]}
    answers = set()
    for traffic in example_traffic_specs():
        topology, base = base_matrix(topology_section, traffic)
        largest = ConcurrentFlow(topology, base).max_scale()
        assert largest == reference_max_concurrent_flow(topology, base)
        for share in SHARES:
            demands = base.scaled(share * largest)
            result = solve_mcf(topology, demands)
            # feasible, max_utilisation, every arc load and total_flow_bps,
            # all ``==``.
            assert_same_result(
                result, reference_solve_mcf(topology, demands), (name, traffic, share)
            )
            answers.add((share, result.feasible))
    assert {(0.5, True), (1.3, False)} <= answers


def test_fresh_solves_equal_linprog_on_sub_networks_and_other_limits(geant):
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    largest = ConcurrentFlow(geant, base).max_scale()
    links = geant.link_keys()
    nodes = [name for name in geant.nodes() if name not in base.nodes()]
    for limit in (1.0, 0.6):
        for demands in (
            base.scaled(0.3 * largest),
            TrafficMatrix(dict.fromkeys(base.pairs(), 1.0), name="epsilon"),
            TrafficMatrix({}),
        ):
            for active_nodes, active_links in (
                (None, links[::2] + links[1::4]),
                (set(geant.nodes()) - set(nodes[:2]), None),
                (set(geant.nodes()) - set(nodes[:1]), links[2:]),
                (set(geant.nodes()) - {base.pairs()[0][0]}, None),  # an endpoint is off
                (None, []),
            ):
                arguments = (geant, demands, limit, active_nodes, active_links)
                assert_same_result(solve_fresh(*arguments), reference_solve_mcf(*arguments))


# --------------------------------------------------------------------- #
# (b) A session through off/on sequences answers as fresh solves do
# --------------------------------------------------------------------- #
def assert_session_step(session, topology, demands, limit, nodes, links):
    """One step: the session's answer on ``(nodes, links)`` against a fresh LP."""
    index = topology.index()
    result = session.solve(index.node_mask(nodes), index.link_mask(links))
    fresh = solve_fresh(topology, demands, limit, nodes, links)
    assert result.feasible == fresh.feasible, (sorted(nodes), sorted(links))
    # One entry per arc of the index either way, nothing on an arc that is
    # off; the flows are two optima of one LP, so they agree on the
    # objective, not arc by arc.
    assert result.arc_loads.shape == fresh.arc_loads.shape
    if result.feasible:
        arc_on = index.arc_mask(index.node_mask(nodes), index.link_mask(links))
        assert not result.arc_loads[~arc_on].any()
    # (to the solver's tolerances, which are absolute in units of the
    # largest capacity: an ε demand may come out as no flow at all).
    slack = 1e-6 * max(arc.capacity_bps for arc in topology.arcs())
    assert result.total_flow_bps == pytest.approx(fresh.total_flow_bps, rel=1e-6, abs=slack)
    if result.feasible:
        assert result.max_utilisation <= limit * (1.0 + 1e-6) + 1e-9
    return result.feasible


def test_feasible_infeasible_restored_feasible(geant):
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    demands = base.scaled(0.6 * ConcurrentFlow(geant, base).max_scale())
    nodes, links = set(geant.nodes()), set(geant.link_keys())
    session = FlowSession(geant, demands, 1.0)
    solves_before = feasibility_solves()

    def step(off_links):
        return assert_session_step(session, geant, demands, 1.0, nodes, links - set(off_links))

    # The switch-off loop itself: a link goes if the rest still carries the
    # load, and comes back (its columns get ``inf`` again) if it does not.
    off, said_no_by_lp = [], 0
    for key in sorted(links):
        if step([*off, key]):
            off.append(key)
        else:
            said_no_by_lp += reference_demands_connected(
                geant, demands, nodes, links - {*off, key}
            )
    assert off and said_no_by_lp
    assert step(off)
    assert step([])  # everything restored
    assert not step(sorted(links)[: len(links) // 2])
    # The reference solved one fresh LP per step beside the session's.
    assert (feasibility_solves() - solves_before) % 2 == 0
    assert session.simplex_iterations > 0 and session.models_built == 1


def random_topologies(draw, max_nodes=8):
    num_nodes = draw(st.integers(min_value=4, max_value=max_nodes))
    max_links = num_nodes * (num_nodes - 1) // 2
    num_links = draw(
        st.integers(min_value=num_nodes - 1, max_value=min(max_links, 2 * num_nodes))
    )
    return random_connected_topology(
        num_nodes,
        num_links,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        capacity_bps=draw(st.sampled_from([1e8, 1e9, 2.5e9])),
    )


def random_demands(draw, topology, max_pairs=6):
    """Empty, zero, ε (below the solver's tolerances), and up to more than a
    link carries."""
    pairs = draw(
        st.lists(
            st.sampled_from(all_pairs(topology.nodes())),
            min_size=0,
            max_size=max_pairs,
            unique=True,
        )
    )
    volumes = st.sampled_from([0.0, 1.0, 1e3, 1e6]) | st.floats(min_value=1e7, max_value=2e9)
    return TrafficMatrix({pair: draw(volumes) for pair in pairs})


@st.composite
def session_cases(draw):
    topology = random_topologies(draw)
    elements = st.sampled_from(topology.nodes() + topology.link_keys())
    # Each step toggles a few elements (the first one is what the session
    # opens on) and may retarget the session: at new volumes over the same
    # pairs — the origins stay, the model is kept — or at a new demand set,
    # whose origins usually differ.
    first = drawn = current = random_demands(draw, topology)
    steps = []
    for toggled in draw(st.lists(st.lists(elements, max_size=3), min_size=2, max_size=8)):
        change = draw(st.sampled_from(["keep", "keep", "rescale", "redraw"]))
        if change == "rescale":
            current = drawn.scaled(draw(st.sampled_from([0.0, 1e-9, 0.5, 2.0])))
        elif change == "redraw":
            drawn = current = random_demands(draw, topology)
        steps.append((toggled, current))
    return topology, first, steps


@settings(max_examples=60, deadline=None)
@given(session_cases(), st.sampled_from([1.0, 0.6, 0.3]))
def test_random_off_on_sequences_answer_as_fresh_solves(case, limit):
    topology, demands, steps = case
    off = set(steps[0][0])
    nodes = {name for name in topology.nodes() if name not in off}
    links = {key for key in topology.link_keys() if key not in off}
    session = FlowSession(topology, demands, limit)
    assert_session_step(session, topology, demands, limit, nodes, links)
    for toggled, retargeted in steps[1:]:
        off ^= set(toggled)
        if retargeted is not demands:
            demands = retargeted
            session.retarget(demands)
        assert_session_step(
            session,
            topology,
            demands,
            limit,
            {name for name in topology.nodes() if name not in off},
            {key for key in topology.link_keys() if key not in off},
        )


def test_a_retargeted_session_keeps_its_model_while_the_origins_stay(geant):
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    largest = ConcurrentFlow(geant, base).max_scale()
    session = FlowSession(geant, base.scaled(0.5 * largest))
    assert session.solve().feasible
    for share, fits in ((0.9, True), (1.3, False), (0.2, True)):
        demands = base.scaled(share * largest)
        session.retarget(demands)
        result = session.solve()
        assert result.feasible == fits == solve_mcf(geant, demands).feasible
    assert session.models_built == 1
    # Another origin set is another set of rows and columns: a new model.
    dropped = base.origins()[0]
    other = TrafficMatrix({pair: base[pair] for pair in base.pairs() if pair[0] != dropped})
    assert 0 < len(other.origins()) < len(base.origins())
    session.retarget(other)
    assert_same_result(session.solve(), reference_solve_mcf(geant, other))
    assert session.models_built == 2


def test_a_session_opened_on_a_sub_network_answers_a_wider_call(geant):
    """The model spans every arc of the index whatever the first solve's sets."""
    demands, links = geant_case(geant)
    index = geant.index()
    # A spanning tree carries nothing like the load; the whole network does.
    tree = nx.minimum_spanning_tree(to_networkx(geant).to_undirected())
    narrow = index.link_mask([link_key(u, v) for u, v in tree.edges()])
    session = FlowSession(geant, demands, 1.0)
    assert not session.solve(link_on=narrow).feasible
    assert session.solve().feasible
    assert session.solve(link_on=index.link_mask(links[1:])).feasible
    assert not session.solve(link_on=narrow).feasible and session.models_built == 1


# --------------------------------------------------------------------- #
# (b') The masked walk is the name-keyed walk
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def shipped_topology(name):
    section = {"name": name, "params": SHIPPED_TOPOLOGIES[name]}
    return base_matrix(section, example_traffic_specs()[0])[0]


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(sorted(SHIPPED_TOPOLOGIES)))
def test_masked_connectivity_equals_the_name_keyed_walk(data, name):
    topology = shipped_topology(name)
    index = topology.index()
    nodes, links = topology.nodes(), topology.link_keys()
    off_nodes = data.draw(st.sets(st.sampled_from(nodes), max_size=len(nodes) // 3))
    off_links = data.draw(st.sets(st.sampled_from(links), max_size=len(links) // 2))
    active_nodes = [name for name in nodes if name not in off_nodes]
    active_links = [key for key in links if key not in off_links]
    endpoints = st.sampled_from(nodes[:12]) | st.just("no-such-node")
    pairs = data.draw(
        st.lists(
            st.tuples(endpoints, endpoints).filter(lambda pair: pair[0] != pair[1]),
            max_size=6,
            unique=True,
        )
    )
    demands = TrafficMatrix(
        {pair: data.draw(st.sampled_from([0.0, 1.0, 1e6, 1e9])) for pair in pairs}
    )
    expected = reference_demands_connected(topology, demands, active_nodes, active_links)
    masks = index.node_mask(active_nodes), index.link_mask(active_links)
    assert FlowSession(topology, demands).connected(index.arc_mask(*masks)) == expected
    # ... and it is the walk the session starts with.
    if not expected:
        assert not FlowSession(topology, demands).solve(*masks).feasible


# --------------------------------------------------------------------- #
# Failure matrix, "LP infeasible / time-limited" row
# --------------------------------------------------------------------- #
def geant_case(geant):
    """``(demands, links)``: a load GÉANT carries with any one link off."""
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    return base.scaled(0.5 * ConcurrentFlow(geant, base).max_scale()), geant.link_keys()


def count_runs(monkeypatch):
    """Patch ``_Highs.run`` to count its calls; returns the list that grows."""
    calls, real = [], highs._Highs.run

    def run(highs):
        calls.append(highs)
        return real(highs)

    monkeypatch.setattr(highs._Highs, "run", run)
    return calls


@pytest.mark.parametrize(
    ("status", "message"),
    [
        ("kTimeLimit", "Time limit reached"),
        ("kIterationLimit", "Iteration limit reached"),
        ("kUnboundedOrInfeasible", "Primal infeasible or unbounded"),
        ("kUnknown", "Unknown"),
    ],
)
def test_only_infeasible_means_infeasible(monkeypatch, geant, status, message):
    demands, links = geant_case(geant)
    link_mask = geant.index().link_mask
    session = FlowSession(geant, demands)
    assert session.solve().feasible
    monkeypatch.setattr(
        highs._Highs, "getModelStatus", lambda self: getattr(highs.HighsModelStatus, status)
    )
    with pytest.raises(SolverError, match=message):
        session.solve(link_on=link_mask(links[1:]))
    monkeypatch.undo()

    # The session that raised is not asked again, whatever the question —
    # other sets, or other volumes over the same origins.
    runs = count_runs(monkeypatch)
    for active_links in (links[1:], None):
        with pytest.raises(SolverError, match="takes no further calls"):
            session.solve(link_on=link_mask(active_links))
    session.retarget(demands.scaled(0.5))
    with pytest.raises(SolverError, match="takes no further calls"):
        session.solve()
    assert not runs
    # What needs no solver is still answered, and a new session is fine.
    assert not session.solve(link_on=link_mask([])).feasible
    assert FlowSession(geant, demands).solve(link_on=link_mask(links[1:])).feasible
    assert len(runs) == 1


@pytest.mark.parametrize(
    "method",
    [
        "run",
        "changeColsBounds",
        "changeRowBounds",
        "getDualRay",
        "passModel",
        "setOptionValue",
    ],
)
def test_every_status_returning_call_is_checked(monkeypatch, geant, method):
    demands, links = geant_case(geant)
    index = geant.index()
    arc_on = index.arc_mask(index.node_mask(None), index.link_mask(links[1:]))
    session = FlowSession(geant, demands)
    model_is_in = method not in ("passModel", "setOptionValue")
    if model_is_in:
        # The next question flips bounds back and re-runs ...
        assert session.witness(arc_on) is not None
        assert session.solve().feasible
        # ... on another right-hand side: one the LP finds infeasible, and
        # then reads the dual ray of, for getDualRay.
        session.retarget(demands.scaled(3.0 if method == "getDualRay" else 0.9))
    error = highs.HighsStatus.kError
    failing = (error, False, np.zeros(0)) if method == "getDualRay" else error
    monkeypatch.setattr(highs._Highs, method, lambda self, *args: failing)
    with pytest.raises(SolverError, match=f"HiGHS {method} returned kError"):
        session.witness(arc_on)
    monkeypatch.undo()
    if model_is_in:
        with pytest.raises(SolverError, match="takes no further calls"):
            session.witness(arc_on)
        with pytest.raises(SolverError, match="takes no further calls"):
            session.solve()
        # A new origin set is a new model.
        first = demands.origins()[0]
        session.retarget(demands.restricted_to(p for p in demands.pairs() if p[0] != first))
        assert session.witness(arc_on) is not None
        assert session.models_built == 2
    else:
        # The instance that refused its model is gone; none was left half-built.
        assert session.witness(arc_on) is not None


def bottleneck():
    """``(topology, demands)``: A and B send 3 Gb/s to D over the 2 Gb/s of
    A-C and B-C.  No demand endpoint's cut proves it — A and B each have
    11 Gb/s out, D 10 Gb/s in — only the node set {A, B} does."""
    topology = Topology("bottleneck")
    for name in "ABCD":
        topology.add_node(name)
    for u, v, capacity in (("A", "B", 1e10), ("A", "C", 1e9), ("B", "C", 1e9), ("C", "D", 1e10)):
        topology.add_link(u, v, capacity)
    return topology, TrafficMatrix({("A", "D"): 1.5e9, ("B", "D"): 1.5e9})


def test_an_infeasible_lp_teaches_the_cut_its_dual_ray_points_at():
    topology, demands = bottleneck()
    session = FlowSession(topology, demands)
    arc_on = np.ones(topology.index().num_arcs, dtype=bool)
    assert not session.cut_refuses(arc_on)
    assert session.witness(arc_on) is None and session.cuts_learned == 1
    assert session.cut_refuses(arc_on)
    # The cut outlives the interval: measured under the next demands, it
    # refuses the same question while they still exceed 2 Gb/s.
    session.retarget(demands.scaled(1.1))
    assert session.cut_refuses(arc_on)
    session.retarget(demands.scaled(0.5))
    assert not session.cut_refuses(arc_on)
    assert session.witness(arc_on) is not None and session.cuts_learned == 1


def test_an_infeasible_lp_without_a_dual_ray_learns_nothing_and_still_answers(monkeypatch):
    """As when presolve decides: HiGHS holds no ray to read."""
    topology, demands = bottleneck()
    monkeypatch.setattr(
        highs._Highs, "getDualRay", lambda self: (highs.HighsStatus.kOk, False, np.zeros(0))
    )
    session = FlowSession(topology, demands)
    arc_on = np.ones(topology.index().num_arcs, dtype=bool)
    for _ in range(2):
        assert session.witness(arc_on) is None
        assert session.cuts_learned == 0 and not session.cut_refuses(arc_on)
    assert not session.solve().feasible


def test_a_warning_status_is_not_a_failure(monkeypatch, geant):
    """HiGHS warns when it drops a matrix entry below 1e-9 — a 1 bit/s
    demand in the λ column, in units of a 10 Gb/s link — and ``linprog``
    went on; so does the binding."""
    statuses, real = [], highs._Highs.passModel

    def pass_model(highs, lp):
        statuses.append(real(highs, lp))
        return statuses[-1]

    monkeypatch.setattr(highs._Highs, "passModel", pass_model)
    mixed = TrafficMatrix({("DE", "FR"): 1.0, ("UK", "IT"): 1e9})
    largest = ConcurrentFlow(geant, mixed).max_scale()
    assert statuses == [highs.HighsStatus.kWarning]
    assert 0.0 < largest == reference_max_concurrent_flow(geant, mixed)


@pytest.mark.parametrize(
    ("status", "message"),
    [("kInfeasible", "reports the LP infeasible"), ("kTimeLimit", "Time limit reached")],
)
def test_max_concurrent_flow_raises_on_anything_but_an_optimum(monkeypatch, geant, status, message):
    demands, _ = geant_case(geant)
    monkeypatch.setattr(
        highs._Highs, "getModelStatus", lambda self: getattr(highs.HighsModelStatus, status)
    )
    with pytest.raises(SolverError, match=message):
        ConcurrentFlow(geant, demands).max_scale()


def test_a_failed_solve_fails_the_run_and_poisons_nothing(monkeypatch):
    """A time-limited LP inside ElasticTree's subset search surfaces as
    ``SolverError`` from ``run_scenario`` (which a campaign records as an
    ``error`` point and retries); the next run of the spec is whole."""
    spec = replay_scenario(11)
    expected = canonical_result_dict(run_scenario(spec).to_dict())
    monkeypatch.setattr(
        highs._Highs, "getModelStatus", lambda self: highs.HighsModelStatus.kTimeLimit
    )
    with pytest.raises(SolverError, match="Time limit reached"):
        run_scenario(spec)
    monkeypatch.undo()
    assert canonical_result_dict(run_scenario(spec).to_dict()) == expected


# --------------------------------------------------------------------- #
# (c) Nothing outlives a call; the counts are visible
# --------------------------------------------------------------------- #
def simplex_iterations():
    family = metrics.counter("repro_mcf_simplex_iterations_total")
    return {start: int(family.labels(start=start).value) for start in ("fresh", "warm")}


def models_built():
    return int(metrics.counter("repro_mcf_models_total").value)


def test_one_spec_replayed_twice_in_one_process_gives_one_result():
    spec = replay_scenario(11)
    runs = []
    for _ in range(2):
        solves, iterations, models = feasibility_solves(), simplex_iterations(), models_built()
        with trace.collect(SolveSpans()) as spans:
            result = run_scenario(spec)
        solves = feasibility_solves() - solves
        models = models_built() - models
        iterations = {
            start: count - iterations[start] for start, count in simplex_iterations().items()
        }
        elastictree = [attrs for attrs in spans.attrs if attrs["solver"] == "ElasticTreeRuntime"]
        assert sum(attrs["lp_solves"] for attrs in elastictree) == solves
        assert sum(attrs["lp_models"] for attrs in elastictree) == models
        # One session per topology object (the day's network and its
        # failure view), rebuilt only when the origin set changes: one fresh
        # solve per model built, every other one from the last basis — and
        # fewer pivots in those than in a fresh one.
        assert 2 <= models <= 3
        assert sum(attrs["lp_iterations"] for attrs in elastictree) == sum(iterations.values())
        assert 0 < iterations["warm"] / (solves - models) < iterations["fresh"] / models
        runs.append((canonical_result_dict(result.to_dict()), solves, models, iterations))
    assert runs[0] == runs[1]


def test_no_session_outlives_its_run(monkeypatch):
    sessions, real = [], FlowSession.__init__

    def init(session, *args, **kwargs):
        sessions.append(weakref.ref(session))
        real(session, *args, **kwargs)

    monkeypatch.setattr(FlowSession, "__init__", init)
    result = run_scenario(replay_scenario(11))
    assert len(sessions) == 2 and len(result.times_s) == 16
    gc.collect()
    assert all(reference() is None for reference in sessions)
