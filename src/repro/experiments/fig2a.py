"""Figure 2a: routing-configuration dominance on the GÉANT replay.

Paper result: a single routing configuration (the minimal power tree) is
active almost 60 % of the time, but 13 distinct configurations appear over
the trace — too many to pre-install as whole routing-table sets, which is why
REsPoNse works with per-pair paths instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.dominance import DominanceResult, configuration_dominance
from ..scenario import build_scenario, scheme_outcomes
from .fig1b import geant_replay_spec


@dataclass
class Fig2aResult:
    """Dominance distribution of the Figure 2a reproduction."""

    dominance: DominanceResult

    @property
    def dominant_fraction(self) -> float:
        """Time share of the most common configuration (paper: ~0.6)."""
        return self.dominance.dominant_fraction

    @property
    def num_configurations(self) -> int:
        """Number of distinct configurations (paper: 13)."""
        return self.dominance.num_configurations

    def rows(self) -> List[tuple]:
        """Plotted rows: (configuration rank, fraction of time)."""
        return list(enumerate(self.dominance.fractions, start=1))


def run_fig2a(
    num_days: int = 3,
    num_pairs: int = 110,
    num_endpoints: int = 16,
    peak_total_bps: float = 80e9,
    subsample: int = 1,
    seed: int = 2005,
) -> Fig2aResult:
    """Reproduce Figure 2a on the synthetic GÉANT trace.

    Same declarative scenario as Figure 1b (GÉANT × trace replay × cisco ×
    per-interval GreenTE); only the analysis of the per-interval
    configurations differs.
    """
    spec = geant_replay_spec(
        num_days=num_days,
        num_pairs=num_pairs,
        num_endpoints=num_endpoints,
        peak_total_bps=peak_total_bps,
        subsample=subsample,
        seed=seed,
        name="fig2a",
    )
    built = build_scenario(spec)
    configurations = scheme_outcomes(built)["greente"]["configurations"]
    return Fig2aResult(dominance=configuration_dominance(configurations))
