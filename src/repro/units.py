"""Unit helpers used throughout the library.

All internal quantities are stored in SI base units:

* bandwidth and traffic demand in **bits per second** (bps),
* latency and time in **seconds**,
* power in **watts**.

The helpers below exist so that call sites can state their intent
(``mbps(10)`` rather than ``10_000_000``) and so that tests can assert on
round-trips.  They deliberately stay plain functions: the quantities flow
through numpy arrays in the optimisation layer and wrapping them in a unit
type would add overhead without adding safety.
"""

from __future__ import annotations

#: Number of bits in a kilobit / megabit / gigabit (decimal, networking usage).
KILO = 1_000.0
MEGA = 1_000_000.0
GIGA = 1_000_000_000.0

#: Number of seconds in common wall-clock units.
MINUTE = 60.0
HOUR = 3_600.0
DAY = 86_400.0


def kbps(value: float) -> float:
    """Return *value* kilobits per second expressed in bits per second."""
    return float(value) * KILO


def mbps(value: float) -> float:
    """Return *value* megabits per second expressed in bits per second."""
    return float(value) * MEGA


def gbps(value: float) -> float:
    """Return *value* gigabits per second expressed in bits per second."""
    return float(value) * GIGA


def to_gbps(value_bps: float) -> float:
    """Convert a bits-per-second quantity to gigabits per second."""
    return float(value_bps) / GIGA


def milliseconds(value: float) -> float:
    """Return *value* milliseconds expressed in seconds."""
    return float(value) / 1_000.0


def minutes(value: float) -> float:
    """Return *value* minutes expressed in seconds."""
    return float(value) * MINUTE
