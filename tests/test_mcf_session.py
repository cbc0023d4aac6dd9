"""The flow-LP session of ``routing/mcf.py`` against ``scipy.optimize.linprog``.

``solve_mcf`` / ``max_concurrent_flow`` used to hand their LP to
``linprog(method="highs")``; they now drive SciPy's vendored HiGHS binding
themselves, through one :class:`~repro.routing.mcf.FlowSession` that keeps
the model between solves.  The ``linprog`` formulation is kept here as the
reference.  Pinned:

* the binding exposes every name the session uses (the guard that replaces a
  fallback path);
* a fresh solve returns ``linprog``'s numbers ``==`` — ``arc_loads``,
  ``max_utilisation``, ``total_flow_bps`` and ``λ*`` — on every shipped
  topology under the traffic of ``examples/*.json`` at a feasible, a
  near-limit and an infeasible share of the largest load;
* a session driven through random off/on sequences answers ``feasible`` as a
  fresh ``solve_mcf`` on the same sets does after every step;
* a solver outcome other than optimal / infeasible raises ``SolverError``
  naming HiGHS's status, and a session that raised takes no further calls;
* the iteration counts are on ``scheme.solve`` spans and in
  ``repro_mcf_simplex_iterations_total``, and one spec replayed twice in one
  process gives one digest.
"""

import os
import subprocess
import sys

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
from repro.routing import mcf
from repro.routing.mcf import (
    FlowSession,
    MCFResult,
    demands_connected,
    max_concurrent_flow,
    solve_mcf,
)
from repro.scenario.engine import run_scenario
from repro.topology import random_connected_topology
from repro.traffic import TrafficMatrix, all_pairs

from test_calibration import (  # noqa: I001
    REPO_ROOT,
    SHIPPED_TOPOLOGIES,
    base_matrix,
    example_traffic_specs,
)
from test_subset_search import SolveSpans, feasibility_solves
from workloads import replay_scenario


# --------------------------------------------------------------------- #
# The reference: the LP as linprog was given it
# --------------------------------------------------------------------- #
def reference_lp(topology, demands, active_nodes=None, active_links=None):
    """``(arcs, positive demands, lp)``; ``lp`` is ``None`` if no flow can exist."""
    nodes, arcs = mcf._active_arcs(topology, active_nodes, active_links)
    positive = mcf._positive_demands(demands)
    if not positive or not arcs or not mcf._connected(nodes, arcs, positive):
        return arcs, positive, None
    return arcs, positive, mcf._flow_lp(nodes, arcs, positive)


def reference_solve_mcf(
    topology, demands, utilisation_limit=1.0, active_nodes=None, active_links=None
):
    arcs, positive, lp = reference_lp(topology, demands, active_nodes, active_links)
    if not positive:
        return MCFResult(True, 0.0, {arc.key: 0.0 for arc in arcs}, 0.0)
    if lp is None:
        return MCFResult(False, float("inf"), {}, 0.0)
    result = linprog(
        np.ones(lp.a_ub.shape[1]),
        A_ub=lp.a_ub,
        b_ub=lp.capacity_rhs(utilisation_limit),
        A_eq=lp.a_eq,
        b_eq=lp.eq_rhs,
        bounds=(0, None),
        method="highs",
    )
    if result.status == 2:  # infeasible
        return MCFResult(False, float("inf"), {}, 0.0)
    assert result.success, result.message
    loads = np.zeros(len(arcs))
    for origin_flows in result.x.reshape(lp.num_origins, len(arcs)):
        loads += origin_flows
    loads_bps = loads * lp.scale
    return MCFResult(
        True,
        float(np.max(loads_bps / lp.capacities_bps)),
        {arc.key: float(load) for arc, load in zip(arcs, loads_bps, strict=True)},
        float(mcf.pairwise_sum(result.x)) * lp.scale,
    )


def reference_max_concurrent_flow(topology, demands):
    arcs, positive, lp = reference_lp(topology, demands)
    if not positive:
        return float("inf")
    if lp is None:
        return 0.0
    num_rows, num_flows = lp.a_eq.shape
    cost = np.zeros(num_flows + 1)
    cost[-1] = -1.0
    result = linprog(
        cost,
        A_ub=sparse.hstack([lp.a_ub, sparse.coo_matrix((len(arcs), 1))]),
        b_ub=lp.capacity_rhs(1.0),
        A_eq=sparse.hstack([lp.a_eq, sparse.coo_matrix(-lp.eq_rhs[:, None])]),
        b_eq=np.zeros(num_rows),
        bounds=(0, None),
        method="highs",
    )
    assert result.success, result.message
    return float(result.x[-1])


# --------------------------------------------------------------------- #
# The binding guard: one private module, every name the session uses
# --------------------------------------------------------------------- #
def test_scipy_exposes_the_highs_binding_the_session_drives():
    from scipy.optimize._highspy import _core

    for name in ("_Highs", "HighsLp", "MatrixFormat", "HighsModelStatus", "HighsStatus"):
        assert hasattr(_core, name), name
    assert _core.kHighsInf == float("inf")
    for method in (
        "setOptionValue",
        "passModel",
        "changeColsBounds",
        "run",
        "getInfo",
        "getModelStatus",
        "modelStatusToString",
        "getSolution",
    ):
        assert callable(getattr(_core._Highs, method)), method
    assert hasattr(_core.HighsLp(), "a_matrix_")
    assert hasattr(_core._Highs().getInfo(), "simplex_iteration_count")
    for status in ("kOptimal", "kInfeasible"):
        assert hasattr(_core.HighsModelStatus, status)
    assert _core.MatrixFormat.kColwise is not None and _core.HighsStatus.kError is not None


_MISSING_BINDING_SCRIPT = """
import sys, types
sys.modules["scipy.optimize._highspy._core"] = types.ModuleType("scipy.optimize._highspy._core")
try:
    import repro.routing.mcf
except ImportError as error:
    print(error)
"""


def test_a_scipy_without_the_binding_is_one_import_error_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _MISSING_BINDING_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert "scipy.optimize._highspy._core" in line
    assert "verified on SciPy 1.17.1" in line and f"SciPy {scipy.__version__}" in line


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
        largest = max_concurrent_flow(topology, base)
        assert largest == reference_max_concurrent_flow(topology, base)
        for share in SHARES:
            demands = base.scaled(share * largest)
            result = solve_mcf(topology, demands)
            # Dataclass equality: feasible, max_utilisation, every arc load
            # and total_flow_bps, all ``==``.
            assert result == reference_solve_mcf(topology, demands), (name, traffic, share)
            answers.add((share, result.feasible))
    assert {(0.5, True), (1.3, False)} <= answers


def test_fresh_solves_equal_linprog_on_sub_networks_and_other_limits(geant):
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    largest = max_concurrent_flow(geant, base)
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
                assert FlowSession(*arguments).solve() == reference_solve_mcf(*arguments)


# --------------------------------------------------------------------- #
# (b) A session through off/on sequences answers as fresh solves do
# --------------------------------------------------------------------- #
def assert_session_step(session, topology, demands, limit, nodes, links):
    """One step: the session's answer on ``(nodes, links)`` against a fresh LP."""
    result = session.solve(nodes, links)
    fresh = FlowSession(topology, demands, limit, nodes, links).solve()
    assert result.feasible == fresh.feasible, (sorted(nodes), sorted(links))
    # Same arcs listed either way; the flows are two optima of one LP, so
    # they agree on the objective, not arc by arc.
    assert set(result.arc_loads) == set(fresh.arc_loads)
    # (to the solver's tolerances, which are absolute in units of the
    # largest capacity: an ε demand may come out as no flow at all).
    slack = 1e-6 * max(arc.capacity_bps for arc in topology.arcs())
    assert result.total_flow_bps == pytest.approx(fresh.total_flow_bps, rel=1e-6, abs=slack)
    if result.feasible:
        assert result.max_utilisation <= limit * (1.0 + 1e-6) + 1e-9
    return result.feasible


def test_feasible_infeasible_restored_feasible(geant):
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    demands = base.scaled(0.6 * max_concurrent_flow(geant, base))
    nodes, links = set(geant.nodes()), set(geant.link_keys())
    session = FlowSession(geant, demands, 1.0, nodes, links)
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
            said_no_by_lp += demands_connected(geant, demands, nodes, links - {*off, key})
    assert off and said_no_by_lp
    assert step(off)
    assert step([])  # everything restored
    assert not step(sorted(links)[: len(links) // 2])
    # The reference solved one fresh LP per step beside the session's.
    assert (feasibility_solves() - solves_before) % 2 == 0
    assert session.simplex_iterations > 0


@st.composite
def session_cases(draw):
    num_nodes = draw(st.integers(min_value=4, max_value=8))
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
            st.sampled_from(all_pairs(topology.nodes())), min_size=0, max_size=6, unique=True
        )
    )
    # Empty, ε (below the solver's tolerances), and up to more than a link carries.
    volumes = st.sampled_from([0.0, 1.0, 1e3, 1e6]) | st.floats(min_value=1e7, max_value=2e9)
    demands = TrafficMatrix({pair: draw(volumes) for pair in pairs})
    elements = st.sampled_from(topology.nodes() + topology.link_keys())
    # Each step toggles a few elements; the first one is what the session opens on.
    steps = draw(st.lists(st.lists(elements, max_size=3), min_size=2, max_size=8))
    return topology, demands, steps


@settings(max_examples=60, deadline=None)
@given(session_cases(), st.sampled_from([1.0, 0.6, 0.3]))
def test_random_off_on_sequences_answer_as_fresh_solves(case, limit):
    topology, demands, steps = case
    off = set(steps[0])
    nodes = {name for name in topology.nodes() if name not in off}
    links = {key for key in topology.link_keys() if key not in off}
    session = FlowSession(topology, demands, limit, nodes, links)
    assert_session_step(session, topology, demands, limit, nodes, links)
    for toggled in steps[1:]:
        off ^= set(toggled)
        assert_session_step(
            session,
            topology,
            demands,
            limit,
            {name for name in nodes if name not in off},
            {key for key in links if key not in off},
        )


# --------------------------------------------------------------------- #
# Failure matrix, "LP infeasible / time-limited" row
# --------------------------------------------------------------------- #
def geant_case(geant):
    """``(demands, links)``: a load GÉANT carries with any one link off."""
    _, base = base_matrix({"name": "geant", "params": {}}, example_traffic_specs()[0])
    return base.scaled(0.5 * max_concurrent_flow(geant, base)), geant.link_keys()


def count_runs(monkeypatch):
    """Patch ``_Highs.run`` to count its calls; returns the list that grows."""
    calls, real = [], mcf._Highs.run

    def run(highs):
        calls.append(highs)
        return real(highs)

    monkeypatch.setattr(mcf._Highs, "run", run)
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
    session = FlowSession(geant, demands)
    assert session.solve().feasible
    monkeypatch.setattr(
        mcf._Highs, "getModelStatus", lambda self: getattr(mcf.HighsModelStatus, status)
    )
    with pytest.raises(SolverError, match=message):
        session.solve(active_links=links[1:])
    monkeypatch.undo()

    # The session that raised is not asked again, whatever the question.
    runs = count_runs(monkeypatch)
    for active_links in (links[1:], None):
        with pytest.raises(SolverError, match="takes no further calls"):
            session.solve(active_links=active_links)
    assert not runs
    # What needs no solver is still answered, and a new session is fine.
    assert not session.solve(active_links=[]).feasible
    assert FlowSession(geant, demands).solve(active_links=links[1:]).feasible
    assert len(runs) == 1


@pytest.mark.parametrize("method", ["run", "changeColsBounds", "passModel", "setOptionValue"])
def test_every_status_returning_call_is_checked(monkeypatch, geant, method):
    demands, links = geant_case(geant)
    session = FlowSession(geant, demands)
    model_is_in = method in ("run", "changeColsBounds")
    if model_is_in:
        assert session.solve().feasible  # the next solve flips bounds and re-runs
    monkeypatch.setattr(mcf._Highs, method, lambda self, *args: mcf.HighsStatus.kError)
    with pytest.raises(SolverError, match=f"HiGHS {method} returned kError"):
        session.solve(active_links=links[1:])
    monkeypatch.undo()
    if model_is_in:
        with pytest.raises(SolverError, match="takes no further calls"):
            session.solve(active_links=links[1:])
    else:
        # The instance that refused its model is gone; none was left half-built.
        assert session.solve(active_links=links[1:]).feasible


def test_a_warning_status_is_not_a_failure(monkeypatch, geant):
    """HiGHS warns when it drops a matrix entry below 1e-9 — a 1 bit/s
    demand in the λ column, in units of a 10 Gb/s link — and ``linprog``
    went on; so does the binding."""
    statuses, real = [], mcf._Highs.passModel

    def pass_model(highs, lp):
        statuses.append(real(highs, lp))
        return statuses[-1]

    monkeypatch.setattr(mcf._Highs, "passModel", pass_model)
    mixed = TrafficMatrix({("DE", "FR"): 1.0, ("UK", "IT"): 1e9})
    largest = max_concurrent_flow(geant, mixed)
    assert statuses == [mcf.HighsStatus.kWarning]
    assert 0.0 < largest == reference_max_concurrent_flow(geant, mixed)


@pytest.mark.parametrize(
    ("status", "message"),
    [("kInfeasible", "reports the LP infeasible"), ("kTimeLimit", "Time limit reached")],
)
def test_max_concurrent_flow_raises_on_anything_but_an_optimum(monkeypatch, geant, status, message):
    demands, _ = geant_case(geant)
    monkeypatch.setattr(
        mcf._Highs, "getModelStatus", lambda self: getattr(mcf.HighsModelStatus, status)
    )
    with pytest.raises(SolverError, match=message):
        max_concurrent_flow(geant, demands)


def test_a_failed_solve_fails_the_run_and_poisons_nothing(monkeypatch):
    """A time-limited LP inside ElasticTree's subset search surfaces as
    ``SolverError`` from ``run_scenario`` (which a campaign records as an
    ``error`` point and retries); the next run of the spec is whole."""
    spec = replay_scenario(11)
    expected = canonical_result_dict(run_scenario(spec).to_dict())
    monkeypatch.setattr(
        mcf._Highs, "getModelStatus", lambda self: mcf.HighsModelStatus.kTimeLimit
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


def test_one_spec_replayed_twice_in_one_process_gives_one_result():
    spec = replay_scenario(11)
    runs = []
    for _ in range(2):
        solves, iterations = feasibility_solves(), simplex_iterations()
        with trace.collect(SolveSpans()) as spans:
            result = run_scenario(spec)
        solves = feasibility_solves() - solves
        iterations = {
            start: count - iterations[start] for start, count in simplex_iterations().items()
        }
        elastictree = [attrs for attrs in spans.attrs if attrs["solver"] == "ElasticTreeRuntime"]
        assert sum(attrs["lp_solves"] for attrs in elastictree) == solves
        # One session an interval: 16 fresh solves, the rest warm — and
        # fewer pivots in all the warm ones together than a fresh one each.
        assert sum(attrs["lp_iterations"] for attrs in elastictree) == sum(iterations.values())
        assert 0 < iterations["warm"] / (solves - 16) < iterations["fresh"] / 16
        runs.append((canonical_result_dict(result.to_dict()), solves, iterations))
    assert runs[0] == runs[1]
