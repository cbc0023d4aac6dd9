"""Trace analyses and evaluation metrics (Section 3 and Section 5 support)."""

from .deviation import change_ccdf, fraction_changing_at_least, median_change
from .dominance import DominanceResult, configuration_dominance
from .metrics import percentile_summary
from .recomputation import (
    RecomputationSeries,
    configuration_changes,
    recomputation_rate,
)

__all__ = [
    "change_ccdf",
    "fraction_changing_at_least",
    "median_change",
    "DominanceResult",
    "configuration_dominance",
    "percentile_summary",
    "RecomputationSeries",
    "configuration_changes",
    "recomputation_rate",
]
