"""Figure 9 — media-streaming application performance over REsPoNse-chosen paths."""

from repro.experiments import run_fig9


def test_fig9_streaming_over_response_paths(benchmark, run_once):
    result = run_once(run_fig9)
    for label, minimum, median, maximum, playable in result.rows():
        benchmark.extra_info[f"{label}_min_%"] = round(minimum, 1)
        benchmark.extra_info[f"{label}_median_%"] = round(median, 1)
        benchmark.extra_info[f"{label}_max_%"] = round(maximum, 1)
        benchmark.extra_info[f"{label}_playable_fraction"] = round(playable, 3)
    for count, increase in result.block_latency_increase_percent.items():
        benchmark.extra_info[f"block_latency_increase_{count}_clients_%"] = round(increase, 1)
    # Paper: energy-aware paths have marginal impact — nearly every client can
    # play the video at both population sizes, and block latency changes little.
    for _label, streaming in result.scenarios.items():
        assert streaming.playable_client_fraction >= 0.9
    for increase in result.block_latency_increase_percent.values():
        assert abs(increase) <= 25.0
