"""Cross-cutting evaluation metrics: the percentile summary of a series."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def percentile_summary(values: Sequence[float]) -> Dict[str, float]:
    """Min/median/mean/p95/max summary used in experiment reports."""
    if len(values) == 0:
        return {"min": 0.0, "median": 0.0, "mean": 0.0, "p95": 0.0, "max": 0.0}
    array = np.asarray(list(values), dtype=float)
    return {
        "min": float(array.min()),
        "median": float(np.median(array)),
        "mean": float(array.mean()),
        "p95": float(np.percentile(array, 95)),
        "max": float(array.max()),
    }
