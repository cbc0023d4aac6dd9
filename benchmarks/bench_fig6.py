"""Figure 6 — power consumption across utilisation levels in the Genuity topology."""

from repro.experiments import FIG6_VARIANTS, run_fig6


def test_fig6_genuity_utilisation_sweep(benchmark, run_once):
    result = run_once(run_fig6)
    for variant in FIG6_VARIANTS:
        levels = result.utilisation_levels
        for level, power in zip(levels, result.power_percent[variant], strict=True):
            benchmark.extra_info[f"{variant}_util{int(level)}_power_%"] = round(power, 1)
    # Paper: ~30% savings at low utilisation, savings shrink as load grows,
    # and every variant remains energy-proportional.
    assert result.savings_at("response", 10.0) >= 15.0
    for variant in ("response", "response-lat", "response-ospf"):
        series = result.power_percent[variant]
        assert series[0] <= series[-1] + 1e-6
    # REsPoNse-lat trades a little of the savings for the latency bound.
    assert result.savings_at("response-lat", 10.0) <= result.savings_at("response", 10.0) + 1e-6
