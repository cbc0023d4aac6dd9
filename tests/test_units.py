"""Tests for the unit helpers."""

import pytest

from repro import units


def test_kbps_mbps_gbps_scale_correctly():
    assert units.kbps(1) == 1_000
    assert units.mbps(1) == 1_000_000
    assert units.gbps(1) == 1_000_000_000


def test_bandwidth_round_trip():
    assert units.to_gbps(units.gbps(2.5)) == pytest.approx(2.5)


def test_time_helpers():
    assert units.milliseconds(250) == pytest.approx(0.25)
    assert units.minutes(15) == 900


def test_constants_are_consistent():
    assert units.HOUR == 60 * units.MINUTE
    assert units.DAY == 24 * units.HOUR
    assert units.GIGA == 1_000 * units.MEGA
