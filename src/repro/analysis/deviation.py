"""Traffic-deviation analysis (Figure 1a).

The paper plots the CCDF of the relative traffic change over 5-minute
intervals in a production Google datacenter and observes that "in almost 50 %
cases the traffic changes at least by 20 % percent over a 5-min interval" —
the motivation for why recompute-on-every-change approaches cannot keep up.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import TrafficError
from ..traffic.google_trace import relative_changes


#: The x-axis of Figure 1a: percent change, 0 to 100 in steps of 5.
CHANGE_PERCENTAGES = tuple(range(0, 101, 5))


def change_ccdf(series: Sequence[float]) -> List[Tuple[float, float]]:
    """CCDF of the per-interval relative traffic change.

    Args:
        series: Aggregate traffic volume per interval.

    Returns:
        ``(change_percent, ccdf_percent)`` pairs: the percentage of intervals
        whose relative change is at least ``change_percent``.
    """
    changes = relative_changes(series) * 100.0
    points: List[Tuple[float, float]] = []
    for threshold in CHANGE_PERCENTAGES:
        fraction = float(np.mean(changes >= threshold)) * 100.0
        points.append((float(threshold), fraction))
    return points


def fraction_changing_at_least(series: Sequence[float], threshold_fraction: float) -> float:
    """Fraction of intervals whose relative change is at least the threshold.

    ``fraction_changing_at_least(volumes, 0.20)`` reproduces the paper's
    headline statistic (≈0.5 for the Google trace).
    """
    if threshold_fraction < 0:
        raise TrafficError(f"threshold must be non-negative, got {threshold_fraction}")
    changes = relative_changes(series)
    return float(np.mean(changes >= threshold_fraction))


def median_change(series: Sequence[float]) -> float:
    """Median relative change between consecutive intervals."""
    return float(np.median(relative_changes(series)))
