"""Calibration identity: the hinted search returns the linear walk's float.

``calibrate_max_load`` starts its walk of the growth grid where one
max-concurrent-flow LP points to, instead of at the base matrix, and asks
each grid point of that LP's model with ``λ`` pinned to the point.  The
paper's procedure — grow by 10 % until a fresh feasibility LP says no — is
kept here, one oracle call per step, as the reference.  Pinned:

* the returned scale is ``==`` the reference's on every shipped topology
  under the traffic specs of ``examples/*.json``, on the benchmark
  harness's GÉANT grid, and on random topologies and matrices, from the
  base matrix and from scaled-down ones, up to the iteration cap;
* ... and where ``λ*`` sits on a grid point or within 1e-5 of one, where a
  fresh LP answers the probe in the band (single link and GÉANT);
* pinned and fresh answers agree outside the band on random inputs at nine
  offsets of ``λ*``, and ``ConcurrentFlow.feasible_at`` is the fresh answer
  at all nine;
* a wrong, useless or missing ``λ*`` changes the number of oracle calls,
  never the result;
* a custom oracle gets the plain walk: no LP of the module's own, no memo;
* a cold default calibration costs 3 LP solves on 1 model, its probes warm;
  a probe that fails raises and memoises nothing;
* the vectorised LP assembly hands HiGHS the matrices and right-hand sides
  of the per-entry loop it replaced.
"""

import glob
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.campaign import CampaignSpec
from repro.exceptions import SolverError, TrafficError
from repro.obs import metrics, trace
from repro.routing import highs, mcf
from repro.routing.mcf import PINNED_PROBE_BAND, ConcurrentFlow, is_demand_feasible
from repro.scenario.spec import ScenarioSpec
from repro.topology import Topology, build_geant, random_connected_topology
from repro.traffic import (
    TrafficMatrix,
    all_pairs,
    calibrate_max_load,
    calibration_cache_stats,
    clear_calibration_cache,
)
from repro.traffic.scaling import GROWTH_STEP, MAX_ITERATIONS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks", "harness"))

from workloads import geant_grid  # noqa: E402

#: Every registered topology component, with parameters where it needs them.
SHIPPED_TOPOLOGIES = {
    "abovenet": {},
    "example": {},
    "fattree": {},
    "geant": {},
    "genuity": {},
    "pop-access": {},
    "random": {"num_nodes": 12, "num_links": 20, "seed": 3},
    "rocketfuel": {"name": "rf", "num_pops": 14, "num_links": 24, "seed": 5},
    "waxman": {"num_nodes": 14, "seed": 2},
}


def linear_walk(topology, base, oracle=is_demand_feasible):
    """Section 5.1 to the letter: ``(scale, steps)``, one oracle call a step."""
    scale = 1.0
    if not oracle(topology, base.scaled(scale)):
        raise TrafficError("the initial demand is already infeasible")
    steps = 0
    for _ in range(MAX_ITERATIONS):
        candidate = scale * (1.0 + GROWTH_STEP)
        if not oracle(topology, base.scaled(candidate)):
            break
        scale = candidate
        steps += 1
    return scale, steps


def assert_same_as_walk(topology, base):
    clear_calibration_cache()
    try:
        expected, _ = linear_walk(topology, base)
    except TrafficError:
        with pytest.raises(TrafficError, match="initial demand is already infeasible"):
            calibrate_max_load(topology, base)
        return None
    scale = calibrate_max_load(topology, base)
    assert scale == expected, (scale, expected)
    return scale


def example_traffic_specs():
    """The distinct traffic sections of ``examples/*.json`` (grids expanded)."""
    distinct = {}
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.json"))):
        with open(path, encoding="utf-8") as stream:
            document = json.load(stream)
        if "axes" in document:
            specs = [point.spec for point in CampaignSpec.from_dict(document).expand()]
        else:
            specs = [ScenarioSpec.from_dict(document)]
        for spec in specs:
            traffic = spec.to_dict()["traffic"]
            distinct[json.dumps(traffic, sort_keys=True)] = traffic
    return list(distinct.values())


def base_matrix(topology_section, traffic_section):
    """``(topology, matrix)`` the gravity component would calibrate."""
    spec = ScenarioSpec.from_dict(
        {
            "name": "calibration-case",
            "topology": topology_section,
            "traffic": traffic_section,
            "power": "cisco",
            "schemes": ["ecmp"],
        }
    )
    topology = spec.topology.build()
    return topology, spec.traffic.build(topology, calibrate=False, levels=None).peak()


def harness_grid_inputs(seed):
    """The 6 distinct (topology, base matrix) inputs of the harness grid."""
    inputs = {}
    for point in CampaignSpec.from_dict(geant_grid(seed)).expand():
        section = point.spec.to_dict()
        key = json.dumps(section["traffic"], sort_keys=True)
        if key not in inputs:
            inputs[key] = base_matrix(section["topology"], section["traffic"])
    return list(inputs.values())


def lp_solves():
    """Total of ``repro_mcf_lp_solves_total`` over its label children."""
    family = metrics.counter("repro_mcf_lp_solves_total")
    return int(math.fsum(sample["value"] for sample in family.samples()))


class CalibrateSpans(trace.SpanCollector):
    def __init__(self):
        self.attrs = []

    def on_exit(self, span):
        if span.name == "traffic.calibrate":
            self.attrs.append(dict(span.attrs))


def calibrate_traced(topology, base):
    """``(scale, span attributes)`` of one cold calibration."""
    clear_calibration_cache()
    with trace.collect(CalibrateSpans()) as spans:
        scale = calibrate_max_load(topology, base)
    (attrs,) = spans.attrs
    return scale, attrs


# --------------------------------------------------------------------- #
# (a) Differential: same float as the linear walk
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(SHIPPED_TOPOLOGIES))
def test_shipped_topologies_under_example_traffic(name):
    topology_section = {"name": name, "params": SHIPPED_TOPOLOGIES[name]}
    for traffic in example_traffic_specs():
        topology, base = base_matrix(topology_section, traffic)
        # Not every topology carries the default gravity total (both
        # searches then raise); each does from far below the boundary.
        if assert_same_as_walk(topology, base) is None:
            assert assert_same_as_walk(topology, base.scaled(0.02)) is not None


@pytest.mark.parametrize("seed", [11, 12])
def test_harness_grid_calibrations(seed):
    scales = [
        assert_same_as_walk(topology, base)
        for topology, base in harness_grid_inputs(seed)
    ]
    assert len(scales) == 6 and None not in scales


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
            st.sampled_from(all_pairs(topology.nodes())),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    demands = {
        pair: draw(st.floats(min_value=1e5, max_value=5e8, allow_nan=False))
        for pair in pairs
    }
    return topology, TrafficMatrix(demands)


@settings(max_examples=25, deadline=None)
@given(random_cases(), st.sampled_from([1e-3, 0.2, 1.0]))
def test_random_topologies_and_matrices(case, base_scale):
    topology, base = case
    assert_same_as_walk(topology, base.scaled(base_scale))


def test_the_iteration_cap_cuts_the_walk_short_of_the_boundary():
    topology, base = harness_grid_inputs(11)[0]

    def boundless(_topology, _demands):
        return True

    expected, steps = linear_walk(topology, base, oracle=boundless)
    assert steps == MAX_ITERATIONS
    assert calibrate_max_load(topology, base, oracle=boundless) == expected


def test_span_reports_the_walks_step_count_and_three_solves():
    topology, base = harness_grid_inputs(11)[0]
    expected, steps = linear_walk(topology, base)
    scale, attrs = calibrate_traced(topology, base)
    assert scale == expected
    assert attrs["growth_iterations"] == steps
    assert attrs["scale"] == expected
    assert attrs["lp_solves"] == 3
    assert attrs["slides"] == 0
    assert attrs["fresh_probes"] == 0
    assert expected <= attrs["lambda_star"] < expected * 1.1 * (1 + 1e-6)


# --------------------------------------------------------------------- #
# (a') Boundary battery: λ* on a grid point, or within 1e-5 of one
# --------------------------------------------------------------------- #
#: Relative offsets of ``λ*`` from a grid point; all lie inside the band.
BOUNDARY_OFFSETS = (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5)


def grid_point(step):
    scale = 1.0
    for _ in range(step):
        scale = scale * (1.0 + GROWTH_STEP)
    return scale


def single_link():
    topology = Topology("single-link")
    topology.add_node("a")
    topology.add_node("b")
    topology.add_link("a", "b", 1e9)
    return topology


def boundary_inputs():
    """``(label, topology, base)`` whose ``λ*`` is ``grid_point(step) * (1 + offset)``."""
    link = single_link()
    _, geant_base = harness_grid_inputs(11)[0]
    geant = build_geant()
    geant_lambda = ConcurrentFlow(geant, geant_base).max_scale()
    # (From step 1: λ* just below step 0 leaves nothing to calibrate.)
    for step in (1, 7):
        for offset in BOUNDARY_OFFSETS:
            target = grid_point(step) * (1.0 + offset)
            # One demand on one link: λ* = capacity / demand, exactly.
            yield (f"link-{step}-{offset:+g}", link, TrafficMatrix({("a", "b"): 1e9 / target}))
            # GÉANT: λ* of the rescaled matrix is the target to the
            # solver's tolerances, which is what the band is for.
            yield (f"geant-{step}-{offset:+g}", geant, geant_base.scaled(geant_lambda / target))


def test_lambda_star_on_and_beside_a_grid_point_returns_the_walks_float():
    for label, topology, base in boundary_inputs():
        expected, steps = linear_walk(topology, base)
        scale, attrs = calibrate_traced(topology, base)
        assert scale == expected, label
        assert attrs["growth_iterations"] == steps, label
        # The probe at the grid point next to λ* was answered by the fresh LP.
        assert attrs["fresh_probes"] >= 1, (label, attrs)


# --------------------------------------------------------------------- #
# (a'') Decision sweep: pinned model vs fresh LP at offsets of λ*
# --------------------------------------------------------------------- #
SWEEP_OFFSETS = (-1e-3, -1e-5, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, 1e-5, 1e-3)


def seeded_case(seed):
    """A random connected topology and up to 8 random demands."""
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(4, 10))
    max_links = min(num_nodes * (num_nodes - 1) // 2, 2 * num_nodes)
    num_links = int(rng.integers(num_nodes - 1, max_links + 1))
    topology = random_connected_topology(
        num_nodes,
        num_links,
        seed=int(rng.integers(0, 10_000)),
        capacity_bps=float(rng.choice([1e8, 1e9, 2.5e9])),
    )
    candidates = all_pairs(topology.nodes())
    chosen = rng.choice(len(candidates), size=int(rng.integers(1, 9)), replace=False)
    return topology, TrafficMatrix(
        {candidates[int(i)]: float(rng.uniform(1e5, 5e8)) for i in sorted(chosen)}
    )


def test_pinned_and_fresh_answers_agree_outside_the_band():
    disagreements = []
    for seed in range(60):
        topology, base = seeded_case(seed)
        raw, flow = ConcurrentFlow(topology, base), ConcurrentFlow(topology, base)
        lambda_star = raw.max_scale()
        assert flow.max_scale() == lambda_star
        model, column, _ = raw._lambda_model()
        for offset in SWEEP_OFFSETS:
            scale = lambda_star * (1.0 + offset)
            fresh = is_demand_feasible(topology, base.scaled(scale))
            # What the calibration asks: the fresh answer, band or not.
            assert flow.feasible_at(scale) == fresh, (seed, offset)
            # The pinned model alone, band ignored.
            model.set_bounds(column, np.array([scale]), np.array([scale]))
            if (model.solve() is not None) != fresh:
                disagreements.append((seed, offset))
        # Inside the band every probe went to the fresh LP, outside none did.
        assert flow.fresh_probes == sum(abs(o) <= PINNED_PROBE_BAND for o in SWEEP_OFFSETS)
    assert all(abs(offset) <= PINNED_PROBE_BAND for _, offset in disagreements), disagreements


# --------------------------------------------------------------------- #
# (b) Hint robustness: λ* steers the walk, the oracle decides
# --------------------------------------------------------------------- #
def test_a_wrong_or_missing_hint_costs_slides_not_correctness(monkeypatch):
    topology, base = harness_grid_inputs(11)[0]
    expected, steps = linear_walk(topology, base)
    assert steps > 6
    true_lambda = ConcurrentFlow(topology, base).max_scale()

    def failing(_flow):
        raise SolverError("solver gave up")

    hints = {
        "exact": (lambda _: true_lambda, 0),
        "three steps low": (lambda _: true_lambda / 1.1**3, 3),
        # Its own grid point is rejected: back to step 0, then all the way up.
        "three steps high": (lambda _: true_lambda * 1.1**3, 1 + steps),
        "below the grid": (lambda _: 0.0, steps),
        "unbounded": (lambda _: float("inf"), 1 + steps),
        "not a number": (lambda _: float("nan"), steps),
        "solver failure": (failing, steps),
    }
    for label, (max_scale, slides) in hints.items():
        monkeypatch.setattr(ConcurrentFlow, "max_scale", max_scale)
        scale, attrs = calibrate_traced(topology, base)
        assert scale == expected, label
        assert attrs["growth_iterations"] == steps, label
        assert attrs["slides"] == slides, label


def test_infeasible_initial_scale_still_raises(monkeypatch):
    topology, base = harness_grid_inputs(11)[0]
    expected, _ = linear_walk(topology, base)
    too_much = expected * 1.1 * 1.1
    with pytest.raises(TrafficError, match="initial demand is already infeasible"):
        calibrate_max_load(topology, base.scaled(too_much))
    # Also when a wrong λ* claims there is room above it.
    monkeypatch.setattr(ConcurrentFlow, "max_scale", lambda _: too_much * 2.0)
    clear_calibration_cache()
    with pytest.raises(TrafficError, match="initial demand is already infeasible"):
        calibrate_max_load(topology, base.scaled(too_much))


# --------------------------------------------------------------------- #
# (c) A custom oracle is the plain walk
# --------------------------------------------------------------------- #
def test_custom_oracle_runs_no_lp_of_its_own_and_is_never_memoised(monkeypatch):
    def no_lp(*_):
        raise AssertionError("a custom-oracle calibration solved an LP")

    monkeypatch.setattr(ConcurrentFlow, "max_scale", no_lp)
    monkeypatch.setattr(ConcurrentFlow, "feasible_at", no_lp)
    monkeypatch.setattr(mcf, "solve_mcf", no_lp)
    topology = build_geant()
    base = TrafficMatrix({("DE", "FR"): 1e6})
    calls = []

    def oracle(_topology, demands):
        calls.append(demands.total_bps)
        return demands.total_bps <= 2.5e6

    clear_calibration_cache()
    solves_before = lp_solves()
    expected, steps = linear_walk(topology, base, oracle=oracle)
    del calls[:]
    with trace.collect(CalibrateSpans()) as spans:
        first = calibrate_max_load(topology, base, oracle=oracle)
        second = calibrate_max_load(topology, base, oracle=oracle)
    assert first == second == expected
    # Both calls walked every step themselves: s0, the accepted steps, the
    # rejected one.
    assert len(calls) == 2 * (steps + 2)
    assert lp_solves() == solves_before
    assert calibration_cache_stats() == {"hits": 0, "misses": 0}
    for attrs in spans.attrs:
        assert attrs["memoised"] is False
        assert attrs["lp_solves"] == 0
        assert attrs["lambda_star"] is None
        assert attrs["slides"] == attrs["growth_iterations"] == steps


# --------------------------------------------------------------------- #
# (d) LP budget, and a probe that fails
# --------------------------------------------------------------------- #
def simplex_iterations():
    """``(fresh, warm)`` of ``repro_mcf_simplex_iterations_total``."""
    family = metrics.counter("repro_mcf_simplex_iterations_total")
    return tuple(int(family.labels(start=start).value) for start in ("fresh", "warm"))


def test_cold_calibration_costs_at_most_four_lp_solves():
    """Exactly 3 with a correct hint: the λ solve, the confirm and the reject
    probe, all on one model, the probes from the λ solve's basis."""
    for topology, base in harness_grid_inputs(12):
        clear_calibration_cache()
        before = lp_solves()
        models = int(metrics.counter("repro_mcf_models_total").value)
        fresh, warm = simplex_iterations()
        scale, attrs = calibrate_traced(topology, base)
        assert lp_solves() - before == attrs["lp_solves"] == 3
        assert int(metrics.counter("repro_mcf_models_total").value) - models == 1
        now_fresh, now_warm = simplex_iterations()
        assert now_warm - warm == attrs["probe_iterations"]
        assert now_fresh > fresh
        assert attrs["fresh_probes"] == attrs["slides"] == 0
        # The memo answers the repeat without any.
        before = lp_solves()
        assert calibrate_max_load(topology, base) == scale
        assert lp_solves() == before


@pytest.mark.parametrize("status", ["kTimeLimit", "kUnknown"])
def test_a_failed_probe_raises_and_memoises_nothing(monkeypatch, status):
    topology, base = harness_grid_inputs(11)[0]
    expected, _ = linear_walk(topology, base)
    real = ConcurrentFlow.max_scale

    def then_the_probes_fail(flow):
        lambda_star = real(flow)
        monkeypatch.setattr(
            highs._Highs, "getModelStatus", lambda _: getattr(highs.HighsModelStatus, status)
        )
        return lambda_star

    monkeypatch.setattr(ConcurrentFlow, "max_scale", then_the_probes_fail)
    clear_calibration_cache()
    with pytest.raises(SolverError, match="HiGHS stopped with model status"):
        calibrate_max_load(topology, base)
    monkeypatch.undo()
    # Nothing was memoised: the next call is another miss, and the walk's.
    assert calibrate_max_load(topology, base) == expected
    assert calibration_cache_stats() == {"hits": 0, "misses": 2}


def test_a_non_finite_matrix_is_refused_before_the_memo():
    """A NaN matrix once calibrated to 189 905 276.46, and the memo kept it."""
    geant = build_geant()
    base = TrafficMatrix({("DE", "FR"): 1e6, ("UK", "IT"): 2e6})
    clear_calibration_cache()
    for value in (float("nan"), float("inf")):
        with pytest.raises(TrafficError, match="must be finite"):
            calibrate_max_load(geant, TrafficMatrix({("DE", "FR"): value}))
        with pytest.raises(TrafficError, match="must be finite"):
            calibrate_max_load(geant, base.scaled(value))
    assert calibration_cache_stats() == {"hits": 0, "misses": 0}


# --------------------------------------------------------------------- #
# (e) Vectorised LP assembly == the per-entry loop
# --------------------------------------------------------------------- #
def loop_built_lp(nodes, arcs, positive, utilisation_limit):
    """``(A_eq, b_eq, A_ub, b_ub)`` assembled one entry at a time."""
    scale = max(arc.capacity_bps for arc in arcs)
    origins = sorted({origin for (origin, _), _ in positive})
    demand_from = {origin: {} for origin in origins}
    for (origin, destination), demand in positive:
        demand_from[origin][destination] = (
            demand_from[origin].get(destination, 0.0) + demand / scale
        )
    node_index = {name: index for index, name in enumerate(nodes)}
    num_arcs, num_origins = len(arcs), len(origins)
    num_vars = num_arcs * num_origins

    eq_rows, eq_cols, eq_vals = [], [], []
    eq_rhs = np.zeros(len(nodes) * num_origins)
    for origin_position, origin in enumerate(origins):
        sinks = demand_from[origin]
        supply = sum(sinks.values())
        for arc_position, arc in enumerate(arcs):
            column = origin_position * num_arcs + arc_position
            eq_rows.append(origin_position * len(nodes) + node_index[arc.src])
            eq_cols.append(column)
            eq_vals.append(1.0)
            eq_rows.append(origin_position * len(nodes) + node_index[arc.dst])
            eq_cols.append(column)
            eq_vals.append(-1.0)
        for node, position in node_index.items():
            row = origin_position * len(nodes) + position
            if node == origin:
                eq_rhs[row] = supply - sinks.get(node, 0.0)
            else:
                eq_rhs[row] = -sinks.get(node, 0.0)
    a_eq = sparse.csr_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(len(nodes) * num_origins, num_vars)
    )

    ub_rows, ub_cols, ub_vals = [], [], []
    ub_rhs = np.zeros(num_arcs)
    for arc_position, arc in enumerate(arcs):
        ub_rhs[arc_position] = arc.capacity_bps * utilisation_limit / scale
        for origin_position in range(num_origins):
            ub_rows.append(arc_position)
            ub_cols.append(origin_position * num_arcs + arc_position)
            ub_vals.append(1.0)
    a_ub = sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(num_arcs, num_vars))
    return a_eq, eq_rhs, a_ub, ub_rhs


def assert_same_csr(built, reference):
    built = sparse.csr_matrix(built)
    built.sum_duplicates()
    built.sort_indices()
    reference.sort_indices()
    assert built.shape == reference.shape
    assert np.array_equal(built.indptr, reference.indptr)
    assert np.array_equal(built.indices, reference.indices)
    assert np.array_equal(built.data, reference.data)


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "active-links"])
@pytest.mark.parametrize("name", ["geant", "fattree", "genuity"])
def test_vectorised_lp_structure_equals_the_loop_built_one(name, restricted):
    traffic = example_traffic_specs()[1]
    topology, base = base_matrix({"name": name, "params": {}}, traffic)
    if restricted:
        # Drop every fifth link; whatever stays connected is the LP (the
        # model spans every arc of a topology object's index, so the smaller
        # network is a topology of its own).
        active_links = [key for i, key in enumerate(topology.link_keys()) if i % 5]
        topology = topology.subgraph(topology.nodes(), active_links)
    nodes, arcs = topology.nodes(), topology.arcs()
    positive = mcf._positive_demands(base.scaled(0.37))
    lp = mcf._flow_lp(topology.index(), positive)
    a_eq, eq_rhs, a_ub, ub_rhs = loop_built_lp(nodes, arcs, positive, 0.8)
    assert_same_csr(lp.a_eq, a_eq)
    assert_same_csr(lp.a_ub, a_ub)
    # Bit for bit, signed zeros included.
    assert lp.eq_rhs.tobytes() == eq_rhs.tobytes()
    assert lp.capacity_rhs(0.8).tobytes() == ub_rhs.tobytes()
