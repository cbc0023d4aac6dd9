"""Trace analyses and evaluation metrics (Section 3 and Section 5 support).

The re-exports are imported on first use (:mod:`repro.lazy`): the campaign
report reads :mod:`~repro.analysis.dominance` and
:mod:`~repro.analysis.metrics` without the trace and routing modules the
other analyses need.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "deviation": ("change_ccdf", "fraction_changing_at_least", "median_change"),
    "dominance": ("DominanceResult", "configuration_dominance"),
    "metrics": ("percentile_summary",),
    "recomputation": ("RecomputationSeries", "configuration_changes", "recomputation_rate"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
