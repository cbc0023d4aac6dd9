"""One path MILP, one answer: the tie-broken objective and a silent HiGHS.

``optim.pathmilp.solve_path_milp`` returns, from one HiGHS solve, the
routing with the least power; among equal-power ones the fewest hops over
the chosen paths; then the lowest candidate ranks (the earlier pair's rank
weighing more); then the least total of fixed per-column draws.  Pinned
here:

* each tier on a hand-built network whose watts are chosen so that one
  tier decides, with the candidate lists handed over in both orders so
  that the rank cannot be what decides the first two;
* ROADMAP item 14's gate: the path MILPs of the harness grid
  (``geant_grid(11)``) and of the fig8a and fig8b plans return the same
  decisions with their rows permuted (three seeds) and with HiGHS's
  feasibility jump on and off;
* the ties of fig8b's on-demand model that the first three tiers leave to
  the row order, and the last tier breaks;
* nothing reaches file descriptor 1 or 2 while HiGHS solves a path MILP, a
  flow LP, or rejects an option: the harness reads a workload's last stdout
  line as its result, and HiGHS writes to the C-level stdout while its
  console log is on.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.campaign import run_campaign
from repro.exceptions import SolverError
from repro.experiments import fig8a, fig8b
from repro.obs import trace
from repro.optim import pathmilp, solve_path_milp
from repro.power.model import PowerModel
from repro.routing import highs
from repro.routing.mcf import ConcurrentFlow
from repro.routing.paths import Path as RoutedPath
from repro.topology.base import Topology, link_key
from repro.traffic import TrafficMatrix
from repro.units import mbps

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "harness"))

from workloads import geant_grid  # noqa: E402

#: Every node's chassis: large, so that a relative gap of 1e-4 would let a
#: solve stop 25 W from the optimum; the tiers hold at gap 0.
CHASSIS_W = 50_000.0


class LinkWatts(PowerModel):
    """A power model charging each link the watts of a table (half per arc)
    and every node :data:`CHASSIS_W`."""

    name = "link-watts"

    def __init__(self, watts):
        self.watts = watts

    def chassis_power_w(self, node):
        return CHASSIS_W

    def port_power_w(self, arc):
        return self.watts[link_key(arc.src, arc.dst)] / 2.0


class Listed:
    """A candidate provider handing over fixed lists, in a chosen order."""

    def __init__(self, paths):
        self.paths = paths

    def for_pairs(self, pairs, k):
        return {pair: self.paths[pair][:k] for pair in pairs}


def routed(watts):
    """The path ``s`` -> ``t`` the path MILP picks on the network whose links
    (all always powered at both ends) are *watts*, with the candidates —
    every simple path — listed in each order."""
    topology = Topology("tiers")
    for name in sorted({name for key in watts for name in key}):
        topology.add_node(name, always_powered=True)
    for u, v in watts:
        topology.add_link(u, v, capacity_bps=mbps(100))
    model = LinkWatts({link_key(u, v): value for (u, v), value in watts.items()})
    paths = sorted(
        [RoutedPath(("s", "a", "t")), RoutedPath(("s", "b", "c", "t"))]
        if ("b", "c") in watts
        else [RoutedPath(("s", "a", "t")), RoutedPath(("s", "b", "t"))],
        key=lambda path: path.nodes,
    )
    chosen = []
    for order in (paths, paths[::-1]):
        solution = solve_path_milp(
            topology,
            model,
            TrafficMatrix.epsilon([("s", "t")]),
            k=2,
            candidate_paths=Listed({("s", "t"): order}),
        )
        assert solution.optimal and solution.gap == 0.0
        chosen.append((solution.routing.path("s", "t").nodes, order[0].nodes))
    return chosen


def test_power_wins_by_one_step_over_fewer_hops():
    """The 3-hop route draws 30.0 W, the 2-hop one 30.1 W; every link's
    watts is a multiple of 0.1 W and together they share no larger step."""
    watts = {
        ("s", "a"): 15.1,
        ("a", "t"): 15.0,
        ("s", "b"): 10.0,
        ("b", "c"): 10.0,
        ("c", "t"): 10.0,
    }
    assert [path for path, _ in routed(watts)] == [("s", "b", "c", "t")] * 2


def test_hops_break_a_power_tie():
    watts = {
        ("s", "a"): 15.0,
        ("a", "t"): 15.0,
        ("s", "b"): 10.0,
        ("b", "c"): 10.0,
        ("c", "t"): 10.0,
    }
    assert [path for path, _ in routed(watts)] == [("s", "a", "t")] * 2


def test_rank_breaks_a_hops_tie():
    watts = {("s", "a"): 15.0, ("a", "t"): 15.0, ("s", "b"): 15.0, ("b", "t"): 15.0}
    for path, first in routed(watts):
        assert path == first


def test_pairs_trading_ranks_do_not_tie():
    """Four origins reach ``t`` over any of four middles (listed in the same
    order for each), and each middle's link to ``t`` carries one pair.
    Every assignment ties on power, hops and the plain rank sum (0 + 1 + 2
    + 3); the ``i``-th pair's rank weighs ``4 - i``, so the ``i``-th pair
    takes the ``i``-th middle, in either pair order."""
    origins, middles = ["w", "x", "y", "z"], ["m0", "m1", "m2", "m3"]
    topology = Topology("trade")
    for name in [*origins, *middles, "t"]:
        topology.add_node(name, always_powered=True)
    for middle in middles:
        for origin in origins:
            topology.add_link(origin, middle, capacity_bps=1.0)
        topology.add_link(middle, "t", capacity_bps=1.0)
    model = LinkWatts({key: 10.0 for key in topology.link_keys()})
    listed = Listed(
        {
            (origin, "t"): [RoutedPath((origin, middle, "t")) for middle in middles]
            for origin in origins
        }
    )
    for order in (origins, origins[::-1]):
        pairs = [(origin, "t") for origin in order]
        solution = solve_path_milp(
            topology,
            model,
            TrafficMatrix({pair: 1.0 for pair in pairs}),
            k=4,
            candidate_paths=listed,
        )
        assert [solution.routing.path(*pair).nodes[1] for pair in pairs] == middles


def test_an_objective_past_its_bound_compares_power_at_a_coarser_step(
    monkeypatch, geant, cisco_model
):
    """Past ``MAX_OBJECTIVE`` the power units are scaled down and rounded down:
    the objective stays integral and within the bound, and on GÉANT's ε
    always-on model the coarser step still finds the same routing."""
    demands = TrafficMatrix.epsilon([("DE", "FR"), ("UK", "IT"), ("ES", "PL"), ("SE", "GR")])
    exact = solve_path_milp(geant, cisco_model, demands)
    costs = []
    real_init = highs.HighsModel.__init__

    def init(model, cost, *arguments):
        costs.append(cost)
        real_init(model, cost, *arguments)

    monkeypatch.setattr(highs.HighsModel, "__init__", init)
    monkeypatch.setattr(pathmilp, "MAX_OBJECTIVE", 2.0**20)
    coarse = solve_path_milp(geant, cisco_model, demands)
    (cost,) = costs
    on_off = len(geant.link_keys()) + len(geant.nodes())
    highest = cost[-on_off:].sum() + cost[:-on_off].max() * len(demands.pairs())
    assert np.array_equal(cost, np.round(cost)) and highest <= 2.0**20
    assert coarse.power_w == exact.power_w
    assert dict(coarse.routing.items()) == dict(exact.routing.items())


# --------------------------------------------------------------------- #
# ROADMAP item 14's gate
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def plan_milps(tmp_path_factory):
    """What the path MILPs of one harness drain and of the fig8a and fig8b
    plan builds hand to HiGHS (the figures' simulations are skipped)."""
    captured = []
    real_init = highs.HighsModel.__init__

    def init(model, *arguments):
        if len(arguments) == 8:  # the integrality vector: a MILP
            captured.append(arguments)
        real_init(model, *arguments)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(highs.HighsModel, "__init__", init)
        run_campaign(geant_grid(11), store_path=tmp_path_factory.mktemp("grid") / "s.sqlite")
        harness = len(captured)
        for module in (fig8a, fig8b):
            patch.setattr(module, "_simulate", lambda *arguments: None)
        fig8a.run_fig8a()
        fig8b.run_fig8b()
    assert harness == 6 and len(captured) == 10
    return captured


def decisions(cost, matrix, row_lower, row_upper, col_lower, col_upper, options, integer, order):
    """Every column's value, rounded, with the rows handed over in *order*."""
    rows = sparse.csc_array(sparse.csr_array(matrix)[order])
    model = highs.HighsModel(
        cost, rows, row_lower[order], row_upper[order], col_lower, col_upper, options, integer
    )
    solution = model.solve()
    assert model.optimal
    return np.round(solution).astype(int)


def with_feasibility_jump(options, on):
    return tuple(
        (name, on if name == "mip_heuristic_run_feasibility_jump" else value)
        for name, value in options
    )


def test_plan_milps_decide_the_same_under_row_order_and_heuristics(plan_milps):
    for cost, matrix, *bounds, options, integer in plan_milps:
        assert dict(options)["mip_heuristic_run_feasibility_jump"] is False
        identity = np.arange(matrix.shape[0])
        expected = decisions(cost, matrix, *bounds, options, integer, identity)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(matrix.shape[0])
            for on in (False, True):
                found = decisions(
                    cost, matrix, *bounds, with_feasibility_jump(options, on), integer, order
                )
                assert np.array_equal(found, expected), (seed, on)


@pytest.fixture(scope="module")
def fig8b_on_demand():
    """fig8b's on-demand path MILP as it reaches HiGHS: under the three
    tiers alone (``TIE_BITS`` 0) and under all four."""
    models = []
    real_init = highs.HighsModel.__init__

    def init(model, *arguments):
        if len(arguments) == 8:
            models.append(arguments)
        real_init(model, *arguments)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(highs.HighsModel, "__init__", init)
        patch.setattr(fig8b, "_simulate", lambda *arguments: None)
        for bits in (0, pathmilp.TIE_BITS):
            patch.setattr(pathmilp, "TIE_BITS", bits)
            fig8b.run_fig8b()
    assert len(models) == 4  # the always-on and the on-demand model, twice
    return models[1], models[3]


def candidate_columns(matrix, row_lower):
    """Each pair's candidate columns: the pairs are the rows with a lower
    bound of 1 (family (a)), their candidates those rows' columns."""
    rows = sparse.csr_array(matrix)
    return [
        rows.indices[rows.indptr[pair] : rows.indptr[pair + 1]]
        for pair in np.flatnonzero(row_lower == 1.0)
    ]


#: The ranks each four pairs of fig8b's on-demand model may take at equal
#: power, hops and weighted rank: 0 + 15 + 3 × 14 + 2 × 13 = 16 + 2 × 14 + 3
#: × 13 for pairs 0–3, and the same trade for pairs 8–11 (weights 8 to 5).
TRADED_RANKS = ((0, 1, 3, 2), (1, 0, 2, 3))


def test_the_last_tier_breaks_the_ties_of_fig8b_s_on_demand_model(fig8b_on_demand):
    """Under the three tiers alone, row order picks among routings of fig8b's
    on-demand model that all cost 17 978 586: pairs 0–3 and pairs 8–11 each
    take either ranks of :data:`TRADED_RANKS`, the other pairs and every
    on/off column the same.  The last tier costs the four apart, and the
    whole model returns the cheapest under every row order."""
    three, whole = fig8b_on_demand
    cost, matrix, row_lower, row_upper = three[:4]
    assert np.array_equal(whole[1].toarray(), matrix.toarray())
    found = [decisions(*three, np.arange(matrix.shape[0]))]
    for seed in range(20):
        order = np.random.default_rng(seed).permutation(matrix.shape[0])
        found.append(decisions(*three, order))
    assert len({x.tobytes() for x in found}) >= 2  # row order decides

    columns = candidate_columns(matrix, row_lower)
    routings = []
    for first, second in [(first, second) for first in TRADED_RANKS for second in TRADED_RANKS]:
        x = found[0].copy()
        for pair, rank in zip([0, 1, 2, 3, 8, 9, 10, 11], first + second, strict=True):
            x[columns[pair]] = 0
            x[columns[pair][rank]] = 1
        assert np.all(row_lower <= matrix @ x) and np.all(matrix @ x <= row_upper)
        routings.append(x)
    assert {x.tobytes() for x in found} <= {x.tobytes() for x in routings}
    assert [cost @ x for x in routings] == [17_978_586] * 4
    assert len({whole[0] @ x for x in routings}) == 4
    cheapest = min(routings, key=lambda x: whole[0] @ x)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(matrix.shape[0])
        assert np.array_equal(decisions(*whole, order), cheapest)


# --------------------------------------------------------------------- #
# A silent HiGHS
# --------------------------------------------------------------------- #
def test_highs_writes_nothing_to_the_console(capfd, monkeypatch, geant, cisco_model):
    """An always-on model on ε demands, a flow LP and a rejected option
    write nothing; the same solve with the console log on prints HiGHS's
    banner, so the capture sees what HiGHS writes."""
    pairs = [(u, v) for u in geant.nodes()[:8] for v in geant.nodes()[:8] if u != v]
    demands = TrafficMatrix.epsilon(pairs)
    capfd.readouterr()

    solve_path_milp(geant, cisco_model, demands)
    ConcurrentFlow(geant, TrafficMatrix({pair: mbps(10) for pair in pairs})).max_scale()
    with monkeypatch.context() as patch:
        patch.setattr(pathmilp, "TIME_LIMIT_S", -1.0)
        with pytest.raises(SolverError, match="setOptionValue"):
            solve_path_milp(geant, cisco_model, demands)
    assert capfd.readouterr() == ("", "")

    with monkeypatch.context() as patch:
        loud = (("log_to_console", True), *highs.milp_options(pathmilp.TIME_LIMIT_S)[1:])
        patch.setattr(pathmilp, "milp_options", lambda limit_s: loud)
        solve_path_milp(geant, cisco_model, demands)
    assert "Running HiGHS" in capfd.readouterr().out


def test_a_milp_solve_adds_its_wall_clock_to_the_enclosing_span(geant, cisco_model):
    class Exited(trace.SpanCollector):
        attrs = None

        def on_exit(self, span):
            Exited.attrs = dict(span.attrs)

    demands = TrafficMatrix.epsilon([("DE", "FR"), ("UK", "IT")])
    with trace.collect(Exited()), trace.span("scheme.solve") as span:
        solve_path_milp(geant, cisco_model, demands)
        once = span.attrs["mip_solve_ms"]
        solve_path_milp(geant, cisco_model, demands)
    assert 0.0 < once < Exited.attrs["mip_solve_ms"] <= 1e3 * span.duration_s
