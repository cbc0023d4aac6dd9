"""Tests for traffic traces and the synthetic workload generators."""

import numpy as np
import pytest

from repro.exceptions import TrafficError
from repro.traffic import (
    TrafficMatrix,
    TrafficTrace,
    diurnal_factor,
    fattree_sine_pairs,
    generate_geant_trace,
    google_trace,
    google_volume_series,
    gravity_fractions,
    gravity_matrix,
    node_weights,
    relative_changes,
    sine_fraction,
    sine_wave_trace,
    trace_time_labels,
    weekly_factor,
)
from repro.topology.fattree import pod_of
from repro.units import DAY


# --------------------------------------------------------------------- #
# TrafficTrace container
# --------------------------------------------------------------------- #
def _totals(trace):
    return [matrix.total_bps for matrix in trace.matrices()]


def _small_trace():
    matrices = [
        TrafficMatrix({("a", "b"): float(value)}, name=f"m{value}") for value in (1, 2, 3, 4)
    ]
    return TrafficTrace(matrices, interval_s=900.0)


def test_trace_basic_queries():
    trace = _small_trace()
    assert len(trace) == 4
    assert trace.duration_s == 3600.0
    assert trace.timestamps() == [0.0, 900.0, 1800.0, 2700.0]
    assert _totals(trace) == [1.0, 2.0, 3.0, 4.0]
    assert trace[2].demand("a", "b") == 3.0
    intervals = list(trace)
    assert intervals[1].start_s == 900.0


def test_trace_transformations():
    trace = _small_trace()
    assert _totals(trace.scaled(2.0)) == [2.0, 4.0, 6.0, 8.0]
    sub = trace.subsampled(2)
    assert len(sub) == 2
    assert sub.interval_s == 1800.0
    mapped = trace.mapped(lambda m: m.scaled(0.0))
    assert _totals(mapped) == [0.0, 0.0, 0.0, 0.0]


def test_trace_peak_and_offpeak():
    trace = _small_trace()
    assert trace.peak_matrix().demand("a", "b") == 4.0


def test_trace_validation_errors():
    with pytest.raises(TrafficError):
        TrafficTrace([], interval_s=900.0)
    with pytest.raises(TrafficError):
        TrafficTrace([TrafficMatrix.zero()], interval_s=0.0)
    with pytest.raises(TrafficError):
        _small_trace().subsampled(0)


# --------------------------------------------------------------------- #
# Gravity model
# --------------------------------------------------------------------- #
def test_gravity_matrix_totals_and_proportions(geant):
    matrix = gravity_matrix(geant, total_traffic_bps=1e9)
    assert matrix.total_bps == pytest.approx(1e9, rel=1e-6)
    weights = node_weights(geant)
    # Bigger PoPs exchange more traffic: DE (hub) vs IL (spur).
    assert weights["DE"] > weights["IL"]
    assert matrix.demand("DE", "FR") > matrix.demand("IL", "LT")


def test_gravity_matrix_with_pair_subset(geant):
    pairs = [("DE", "FR"), ("UK", "NL")]
    matrix = gravity_matrix(geant, total_traffic_bps=100.0, pairs=pairs)
    assert set(matrix.pairs()) == set(pairs)
    assert matrix.total_bps == pytest.approx(100.0)


def test_gravity_fractions_sum_to_one(geant):
    fractions = gravity_fractions(geant)
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_gravity_rejects_unknown_pair_endpoint(geant):
    with pytest.raises(TrafficError):
        gravity_matrix(geant, 1.0, pairs=[("DE", "nowhere")])


# --------------------------------------------------------------------- #
# Sine-wave datacenter workload
# --------------------------------------------------------------------- #
def test_sine_fraction_range_and_period():
    values = [sine_fraction(i, 10) for i in range(11)]
    assert min(values) >= 0.0
    assert max(values) <= 1.0
    assert values[0] == pytest.approx(0.0)
    assert values[5] == pytest.approx(1.0)
    assert values[10] == pytest.approx(0.0, abs=1e-9)


def test_far_pairs_are_bijective_and_cross_pod(fattree4):
    pairs = fattree_sine_pairs(fattree4, "far", seed=1)
    sources = [origin for origin, _ in pairs]
    destinations = [destination for _, destination in pairs]
    assert len(set(sources)) == len(sources)
    assert len(set(destinations)) == len(destinations)
    for origin, destination in pairs:
        assert pod_of(origin) != pod_of(destination)


def test_near_pairs_stay_in_pod(fattree4):
    pairs = fattree_sine_pairs(fattree4, "near", seed=1)
    for origin, destination in pairs:
        assert pod_of(origin) == pod_of(destination)
    with pytest.raises(TrafficError):
        fattree_sine_pairs(fattree4, "sideways")


def test_sine_wave_trace_shape(fattree4):
    trace = sine_wave_trace(fattree4, mode="far", num_intervals=11, seed=2)
    totals = _totals(trace)
    assert len(trace) == 11
    assert totals[5] == max(totals)
    assert totals[0] < totals[5]


# --------------------------------------------------------------------- #
# GÉANT-like trace
# --------------------------------------------------------------------- #
def test_geant_trace_geometry(geant):
    trace = generate_geant_trace(geant, num_days=1, num_pairs=40, seed=1)
    assert len(trace) == 96
    assert trace.interval_s == 900.0
    assert all(len(matrix) == 40 for matrix in trace.matrices())
    labels = trace_time_labels(trace)
    assert labels[0].startswith("May-25")


def test_geant_trace_is_deterministic(geant):
    first = generate_geant_trace(geant, num_days=1, num_pairs=20, seed=9)
    second = generate_geant_trace(geant, num_days=1, num_pairs=20, seed=9)
    assert _totals(first) == pytest.approx(_totals(second))


def test_geant_trace_diurnal_structure(geant):
    trace = generate_geant_trace(geant, num_days=1, num_pairs=40, seed=1)
    totals = np.array(_totals(trace))
    # Afternoon demand is clearly higher than night demand.
    night = totals[0:16].mean()      # 00:00 - 04:00
    afternoon = totals[52:68].mean() # 13:00 - 17:00
    assert afternoon > 1.5 * night


def test_geant_trace_accepts_explicit_pairs(geant):
    pairs = [("DE", "FR"), ("UK", "NL"), ("IT", "AT")]
    trace = generate_geant_trace(geant, num_days=1, pairs=pairs, seed=1)
    assert set(trace[0].pairs()) == set(pairs)


def test_diurnal_and_weekly_factors():
    assert diurnal_factor(14 * 3600) > diurnal_factor(4 * 3600)
    assert weekly_factor(0.0) == 1.0
    assert weekly_factor(5 * DAY) < 1.0


# --------------------------------------------------------------------- #
# Google-like datacenter trace
# --------------------------------------------------------------------- #
def test_google_volume_series_change_statistics():
    series = google_volume_series(num_days=4, seed=25)
    changes = relative_changes(series)
    fraction_over_20 = float(np.mean(changes >= 0.2))
    # Paper: "in almost 50% cases the traffic changes at least by 20%".
    assert 0.35 <= fraction_over_20 <= 0.70
    assert series.max() > 0
    assert (series > 0).all()


def test_google_volume_series_deterministic():
    first = google_volume_series(num_days=1, seed=3)
    second = google_volume_series(num_days=1, seed=3)
    assert np.allclose(first, second)


def test_google_trace_distributes_volume():
    pairs = [("h0", "h1"), ("h2", "h3"), ("h4", "h5")]
    trace = google_trace(pairs, num_days=1, seed=4)
    assert len(trace) == 288
    for matrix in trace.matrices()[:10]:
        assert set(matrix.pairs()) == set(pairs)
        assert matrix.total_bps > 0
    with pytest.raises(TrafficError):
        google_trace([], num_days=1)


def test_relative_changes_requires_two_points():
    with pytest.raises(TrafficError):
        relative_changes([1.0])
