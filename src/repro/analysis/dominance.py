"""Routing-configuration dominance analysis (Figure 2a).

For the GÉANT replay the paper measures "the fraction of time over which the
network was operating under each routing configuration" and finds that a
single configuration (the minimal power tree) is active almost 60 % of the
time — yet 13 distinct configurations appear overall, too many to
pre-install.  This module computes that distribution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, List, Sequence


@dataclass(frozen=True)
class DominanceResult:
    """Distribution of time across distinct routing configurations.

    Attributes:
        fractions: Fraction of intervals spent in each distinct
            configuration, sorted in descending order.
        num_configurations: Number of distinct configurations observed.
        dominant_fraction: Fraction of time spent in the most common one.
    """

    fractions: List[float]
    num_configurations: int
    dominant_fraction: float

    def cumulative(self) -> List[float]:
        """Cumulative time fraction covered by the top-k configurations."""
        totals: List[float] = []
        running = 0.0
        for fraction in self.fractions:
            running += fraction
            totals.append(running)
        return totals

    def configurations_for_coverage(self, target: float = 0.95) -> int:
        """How many configurations are needed to cover the target time share."""
        for index, value in enumerate(self.cumulative(), start=1):
            if value >= target:
                return index
        return self.num_configurations


def configuration_dominance(
    configurations: Sequence[Hashable],
) -> DominanceResult:
    """Measure the time share of each distinct configuration (or scheme name)."""
    if not configurations:
        return DominanceResult(fractions=[], num_configurations=0, dominant_fraction=0.0)
    counts = Counter(configurations)
    total = len(configurations)
    fractions = sorted((count / total for count in counts.values()), reverse=True)
    return DominanceResult(
        fractions=fractions,
        num_configurations=len(counts),
        dominant_fraction=fractions[0],
    )
