"""Tests for traffic matrices and pair selection."""

import pytest

from repro.exceptions import TrafficError
from repro.traffic import (
    TrafficMatrix,
    all_pairs,
    select_pairs_among_subset,
    select_random_pairs,
)


def test_basic_accessors():
    matrix = TrafficMatrix({("a", "b"): 10.0, ("b", "a"): 0.0})
    assert matrix.demand("a", "b") == 10.0
    assert matrix.demand("b", "a") == 0.0
    assert matrix.demand("a", "c") == 0.0
    assert matrix[("a", "b")] == 10.0
    assert ("a", "b") in matrix
    assert len(matrix) == 2
    assert matrix.total_bps == 10.0
    assert matrix.origins() == ["a", "b"]
    assert matrix.nodes() == ["a", "b"]


def test_rejects_negative_and_self_demands():
    with pytest.raises(TrafficError):
        TrafficMatrix({("a", "b"): -1.0})
    with pytest.raises(TrafficError):
        TrafficMatrix({("a", "a"): 5.0})


def test_uniform_epsilon_zero_constructors():
    pairs = [("a", "b"), ("b", "c")]
    uniform = TrafficMatrix.uniform(pairs, 7.0)
    assert uniform.total_bps == 14.0
    epsilon = TrafficMatrix.epsilon(pairs)
    assert epsilon.total_bps == pytest.approx(2.0)
    assert len(TrafficMatrix.zero()) == 0


def test_scaled_preserves_proportions():
    matrix = TrafficMatrix({("a", "b"): 10.0, ("a", "c"): 30.0})
    scaled = matrix.scaled(2.5)
    assert scaled.demand("a", "b") == pytest.approx(25.0)
    assert scaled.demand("a", "c") == pytest.approx(75.0)
    assert scaled.total_bps == pytest.approx(2.5 * matrix.total_bps)
    with pytest.raises(TrafficError):
        matrix.scaled(-1.0)


def test_with_demand_and_restrict_and_merge():
    matrix = TrafficMatrix({("a", "b"): 10.0})
    updated = TrafficMatrix({("a", "b"): 10.0, ("a", "c"): 5.0})
    restricted = updated.restricted_to([("a", "b")])
    assert restricted == matrix
    assert len(updated) == 2  # original unchanged


def test_equality_and_as_dict():
    first = TrafficMatrix({("a", "b"): 1.0})
    second = TrafficMatrix({("a", "b"): 1.0})
    assert first == second
    assert first.as_dict() == {("a", "b"): 1.0}
    assert first != TrafficMatrix({("a", "b"): 2.0})


def test_all_pairs_counts():
    pairs = all_pairs(["a", "b", "c"])
    assert len(pairs) == 6
    assert ("a", "a") not in pairs


def test_select_random_pairs_deterministic_and_bounded():
    nodes = [f"n{i}" for i in range(8)]
    first = select_random_pairs(nodes, 10, seed=1)
    second = select_random_pairs(nodes, 10, seed=1)
    assert first == second
    assert len(first) == 10
    assert len(set(first)) == 10
    everything = select_random_pairs(nodes, 10_000, seed=1)
    assert len(everything) == len(all_pairs(nodes))
    with pytest.raises(TrafficError):
        select_random_pairs(nodes, -1, seed=1)


def test_select_pairs_among_subset_restricts_endpoints():
    nodes = [f"n{i}" for i in range(20)]
    pairs = select_pairs_among_subset(nodes, num_endpoints=5, num_pairs=15, seed=3)
    endpoints = {node for pair in pairs for node in pair}
    assert len(endpoints) <= 5
    assert len(pairs) == 15
    with pytest.raises(TrafficError):
        select_pairs_among_subset(nodes, num_endpoints=1, num_pairs=5)
