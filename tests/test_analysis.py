"""Tests for the trace analyses and evaluation metrics."""

import pytest

from repro.analysis import (
    change_ccdf,
    configuration_changes,
    configuration_dominance,
    fraction_changing_at_least,
    median_change,
    percentile_summary,
    recomputation_rate,
)
from repro.exceptions import TrafficError
from repro.routing import RoutingConfiguration


# --------------------------------------------------------------------- #
# Deviation (Figure 1a machinery)
# --------------------------------------------------------------------- #
def test_change_ccdf_monotone_decreasing():
    series = [100, 120, 90, 200, 100, 100]
    points = change_ccdf(series)
    values = [value for _threshold, value in points]
    assert values == sorted(values, reverse=True)
    assert points[0][1] == pytest.approx(100.0)


def test_fraction_changing_at_least():
    series = [100, 130, 130, 65]  # +30%, 0%, -50%
    assert fraction_changing_at_least(series, 0.2) == pytest.approx(2 / 3)
    assert fraction_changing_at_least(series, 0.0) == pytest.approx(1.0)
    with pytest.raises(TrafficError):
        fraction_changing_at_least(series, -0.1)
    assert median_change(series) == pytest.approx(0.3)


# --------------------------------------------------------------------- #
# Recomputation rate (Figure 1b machinery)
# --------------------------------------------------------------------- #
def _configs(signature_values):
    configs = []
    for value in signature_values:
        configs.append(
            RoutingConfiguration(frozenset({f"n{value}"}), frozenset())
        )
    return configs


def test_configuration_changes():
    configs = _configs([1, 1, 2, 2, 3])
    assert configuration_changes(configs) == [False, True, False, True]
    assert configuration_changes(configs[:1]) == []


def test_recomputation_rate_bins_per_hour():
    # 15-minute intervals: 4 per hour; configuration changes every interval.
    configs = _configs(range(9))
    series = recomputation_rate(configs, interval_s=900.0)
    assert series.upper_bound_per_hour == pytest.approx(4.0)
    assert series.recomputations_per_hour[0] == pytest.approx(4.0)
    assert series.max_rate_per_hour == 4.0
    assert series.total_changes == 8
    assert series.change_fraction == pytest.approx(1.0)
    assert series.mean_rate_per_hour > 0
    with pytest.raises(TrafficError):
        recomputation_rate(configs, interval_s=0.0)


def test_recomputation_rate_stable_trace_is_zero():
    configs = _configs([1] * 8)
    series = recomputation_rate(configs, interval_s=900.0)
    assert series.total_changes == 0
    assert series.max_rate_per_hour == 0.0


# --------------------------------------------------------------------- #
# Dominance (Figure 2a machinery)
# --------------------------------------------------------------------- #
def test_configuration_dominance():
    configs = _configs([1, 1, 1, 2, 3])
    result = configuration_dominance(configs)
    assert result.num_configurations == 3
    assert result.dominant_fraction == pytest.approx(0.6)
    assert result.fractions[0] == pytest.approx(0.6)
    assert result.cumulative()[-1] == pytest.approx(1.0)
    assert result.configurations_for_coverage(0.7) == 2
    empty = configuration_dominance([])
    assert empty.num_configurations == 0


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def test_percentile_summary():
    summary = percentile_summary([1.0, 2.0, 3.0, 4.0])
    assert summary["min"] == 1.0
    assert summary["max"] == 4.0
    assert summary["median"] == pytest.approx(2.5)
    assert percentile_summary([])["mean"] == 0.0
