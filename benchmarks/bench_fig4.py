"""Figure 4 — power versus time for sinusoidal traffic in a k=4 fat-tree datacenter."""



from repro.experiments import run_fig4


def test_fig4_datacenter_sine_wave(benchmark, run_once):
    result = run_once(run_fig4)
    benchmark.extra_info["mean_savings_response_near_%"] = round(
        result.mean_savings_percent("response_near"), 1
    )
    benchmark.extra_info["mean_savings_response_far_%"] = round(
        result.mean_savings_percent("response_far"), 1
    )
    benchmark.extra_info["mean_savings_ecmp_%"] = round(result.mean_savings_percent("ecmp"), 1)
    benchmark.extra_info["peak_power_far_%"] = round(max(result.power_percent["response_far"]), 1)
    benchmark.extra_info["trough_power_near_%"] = round(
        min(result.power_percent["response_near"]), 1
    )
    # Paper: ECMP is flat at ~100%, REsPoNse tracks the sine wave and saves energy.
    assert all(value >= 99.0 for value in result.power_percent["ecmp"])
    assert result.mean_savings_percent("response_near") > 5.0
    assert min(result.power_percent["response_far"]) < 95.0
