"""Smoke tests for the per-figure experiment drivers (small parameters).

These tests assert the qualitative claims of the paper (who wins, what the
shape looks like), not the absolute numbers: the substrate is synthetic.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments import (
    run_always_on_capacity,
    run_fig1a,
    run_fig1b,
    run_fig2a,
    run_fig2b,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8a,
    run_fig8b,
    run_fig9,
    run_stress_ablation,
    run_web_latency,
)


def test_fig1a_traffic_changes_frequently():
    result = run_fig1a(num_days=2)
    # Paper: almost 50% of intervals change by at least 20%.
    assert 0.3 <= result.fraction_at_least_20_percent <= 0.75
    ccdf = dict(result.ccdf_points)
    assert ccdf[0.0] == pytest.approx(100.0)
    assert ccdf[100.0] <= ccdf[20.0] <= ccdf[0.0]
    assert len(result.rows()) == len(result.ccdf_points)


def test_fig1b_recomputation_rate_reaches_trace_bound():
    result = run_fig1b(num_days=1, num_pairs=60, num_endpoints=14)
    assert result.series.upper_bound_per_hour == pytest.approx(4.0)
    assert 0.0 < result.max_rate_per_hour <= 4.0
    assert result.series.total_changes > 0
    assert len(result.rows()) == len(result.series.hour_start_s)


def test_fig2a_single_configuration_dominates():
    result = run_fig2a(num_days=1, num_pairs=60, num_endpoints=14)
    assert result.num_configurations > 1
    assert result.dominant_fraction >= 0.3
    assert result.rows()[0][1] == pytest.approx(result.dominant_fraction)


def test_fig2b_few_paths_cover_most_traffic():
    result = run_fig2b(geant_days=1, geant_pairs=60, fattree_days=1, max_paths=5)
    geant_curve = result.coverage["geant"]
    fattree_curve = result.coverage["fattree"]
    # Coverage curves are monotone and reach (almost) 1 by 5 paths.
    assert geant_curve == sorted(geant_curve)
    assert fattree_curve == sorted(fattree_curve)
    assert geant_curve[2] >= 0.95          # 3 paths cover nearly everything on GEANT
    assert geant_curve[1] >= 0.90          # 2 paths already cover most traffic
    assert result.paths_for_98_percent["geant"] <= 3
    # The fat-tree needs at least as many paths as the ISP network.
    assert result.paths_for_98_percent["fattree"] >= result.paths_for_98_percent["geant"]


def test_fig4_response_saves_energy_while_ecmp_does_not():
    result = run_fig4(num_intervals=6, include_elastictree=True)
    ecmp = result.power_percent["ecmp"]
    near = result.power_percent["response_near"]
    far = result.power_percent["response_far"]
    assert all(value >= 99.0 for value in ecmp)
    assert all(value < 95.0 for value in near)
    assert min(far) < 95.0
    # Localised (near) traffic allows at least as much savings as far traffic.
    assert sum(near) <= sum(far) + 1e-6
    assert result.mean_savings_percent("response_near") > 5.0
    # ElasticTree and REsPoNse are in the same ballpark (the paper's curves coincide).
    elastictree = result.power_percent["elastictree_near"]
    assert all(value < 99.0 for value in elastictree)


def test_fig5_savings_with_both_hardware_models():
    result = run_fig5(num_days=1, subsample=4)
    response = result.mean_savings_percent["response"]
    alternative = result.mean_savings_percent["response_alternative_hw"]
    assert result.mean_savings_percent["ospf"] == pytest.approx(0.0)
    # Paper: ~30% savings today, ~42% with the alternative hardware model.
    assert 20.0 <= response <= 50.0
    assert alternative > response
    assert result.recomputations_needed == 0
    assert len(result.rows()) == len(result.times_s)


@pytest.mark.slow
def test_fig6_energy_proportionality_across_load_levels():
    result = run_fig6(num_pairs=80, num_endpoints=22)
    for variant in ("response", "response-lat", "response-ospf"):
        series = result.power_percent[variant]
        # Power grows (or stays equal) with the load level.
        assert series[0] <= series[-1] + 1e-6
    # At low load REsPoNse saves a significant amount of energy.
    assert result.savings_at("response", 10.0) >= 15.0
    # The latency-bounded variant saves no more than plain REsPoNse at low load.
    assert result.savings_at("response-lat", 10.0) <= result.savings_at("response", 10.0) + 1e-6


def test_fig6_combined_scenario_equals_the_per_variant_scenarios():
    """``run_fig6`` runs its five variants as the schemes of one scenario;
    each series equals the variant's own scenario run alone."""
    from repro.experiments.fig6 import FIG6_VARIANTS, fig6_scenario_spec
    from repro.scenario import run_scenario

    reduced = dict(utilisation_levels=(10.0, 100.0), num_pairs=40, num_endpoints=16)
    result = run_fig6(**reduced)
    for variant in FIG6_VARIANTS:
        alone = run_scenario(fig6_scenario_spec(variant, **reduced))
        assert result.power_percent[variant] == alone.columns["power_percent"][variant], variant


def test_fig7_te_sleeps_links_and_recovers_from_failure():
    result = run_fig7()
    assert result.sleep_convergence_s is not None
    assert result.sleep_convergence_s <= 0.5          # paper: ~0.2 s (a few RTTs)
    assert result.restore_time_s is not None
    assert result.restore_time_s <= 0.3               # paper: ~0.11 s
    # Before the failure traffic is on the middle path, afterwards on upper/lower.
    middle = result.rates_mbps["middle"]
    upper = result.rates_mbps["upper"]
    lower = result.rates_mbps["lower"]
    assert max(middle) > 4.0
    assert max(upper) > 2.0 and max(lower) > 2.0
    assert middle[-1] == pytest.approx(0.0)


def test_fig8a_isp_rates_track_demand():
    result = run_fig8a(num_steps=4, utilisation_levels=(0.25, 0.5, 1.0, 0.75))
    assert len(result.times_s) == len(result.demand_bps) == len(result.sending_rate_bps)
    # In steady state (last samples of the run) the rate matches the demand.
    assert result.sending_rate_bps[-1] == pytest.approx(result.demand_bps[-1], rel=0.15)
    # Power stays well below 100 % of the original network.
    assert max(result.power_percent) < 90.0
    assert min(result.power_percent) > 0.0


def test_fig8b_fattree_wake_up_stall_visible():
    result = run_fig8b(num_steps=6)
    # The 5-second port wake-up shows up as a bounded demand/rate mismatch.
    assert 0.0 < result.wake_stall_s <= 15.0
    assert result.sending_rate_bps[-1] == pytest.approx(result.demand_bps[-1], rel=0.2)


#: sha256 of each online figure's result at default arguments, as sorted-key
#: JSON.  The same under every ``PYTHONHASHSEED``; a refactor of the
#: REsPoNseTE controller or the simulator underneath must keep them.
ONLINE_FIGURE_DIGESTS = {
    "fig7": (run_fig7, "e214bb2ede3ea456405fcb0f909cff6075a94eca89910c850e57c0379cb274f1"),
    "fig8a": (run_fig8a, "e578494ebea61a7fbf4652cae5ce47104a81f7f831e710b8aa08cb9489cac29e"),
    "fig8b": (run_fig8b, "5ae64da79d0877dba03d151861f6de0c1970946ea57847188f39ebc026c03be4"),
}


@pytest.mark.parametrize("figure", sorted(ONLINE_FIGURE_DIGESTS))
def test_online_figure_result_is_pinned(figure):
    run, expected = ONLINE_FIGURE_DIGESTS[figure]
    dump = json.dumps(dataclasses.asdict(run()), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == expected


def test_fig9_streaming_performance_marginally_affected():
    result = run_fig9()
    for label, streaming in result.scenarios.items():
        minimum, _median, maximum = streaming.delivery_percent_summary()
        assert maximum <= 100.0
        assert minimum >= 80.0
        assert streaming.playable_client_fraction >= 0.9
    # Block-latency change against InvCap stays small (paper: about +5%).
    for increase in result.block_latency_increase_percent.values():
        assert abs(increase) <= 25.0
    assert len(result.rows()) == 4


def test_web_latency_increase_is_marginal():
    result = run_web_latency()
    assert result.invcap.mean_latency_s > 0
    assert -20.0 <= result.latency_increase_percent <= 30.0
    assert len(result.rows()) == 2


def test_always_on_capacity_fraction_is_meaningful():
    result = run_always_on_capacity(num_pairs=80, num_endpoints=20)
    assert result.always_on_max_bps > 0
    assert result.ospf_max_bps > 0
    assert 0.2 <= result.capacity_fraction <= 1.0


@pytest.mark.slow
def test_stress_ablation_more_exclusion_does_not_hurt():
    result = run_stress_ablation(fractions=(0.0, 0.2), num_pairs=60, num_endpoints=14)
    assert len(result.rows()) == 2
    absorbed = dict(result.rows())
    # The paper's default (20% exclusion) absorbs the peak-hour demand.
    assert absorbed[0.2] >= 1.0
    assert result.best_fraction() in (0.0, 0.2)
