"""Fluid flows of the simulator.

A flow is a long-lived demand between an origin and a destination (the Click
experiment uses 5 flows of ~1 Mb/s from each source; the ns-2 experiments use
one flow per origin-destination pair whose demand steps every 30 s).  The
engine assigns every flow a path (chosen by the TE controller among the
installed REsPoNse paths) and computes its achieved rate with max-min
fairness over the usable links.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..routing.paths import Path

#: A demand profile maps simulation time (seconds) to offered load (bps).
DemandProfile = Callable[[float], float]


def constant_demand(rate_bps: float) -> DemandProfile:
    """A demand profile that never changes."""

    def profile(_now_s: float) -> float:
        return rate_bps

    return profile


def stepped_demand(steps: List[Tuple[float, float]]) -> DemandProfile:
    """A piecewise-constant demand profile.

    Args:
        steps: ``(start_time_s, rate_bps)`` pairs sorted by start time; the
            rate before the first step is zero.
    """
    ordered = sorted(steps)

    def profile(now_s: float) -> float:
        rate = 0.0
        for start, value in ordered:
            if now_s + 1e-12 >= start:
                rate = value
            else:
                break
        return rate

    return profile


@dataclass
class Flow:
    """One origin-destination fluid flow.

    Attributes:
        flow_id: Unique identifier.
        origin: Origin node (where the TE agent controlling it lives).
        destination: Destination node.
        demand: Demand profile (offered load as a function of time).
        path: Currently assigned path, or ``None`` when unrouted.
        rate_bps: Achieved rate computed by the engine for the current step.
    """

    flow_id: str
    origin: str
    destination: str
    demand: DemandProfile
    path: Optional[Path] = None
    rate_bps: float = 0.0

    def offered_load(self, now_s: float) -> float:
        """Offered load at simulation time *now_s* (a negative demand offers
        nothing; a NaN demand raises :class:`~repro.exceptions.SimulationError`)."""
        demand = float(self.demand(now_s))
        if isnan(demand):
            raise SimulationError(f"flow {self.flow_id!r} has a NaN demand at t={now_s} s")
        return max(0.0, demand)

    @property
    def pair(self) -> Tuple[str, str]:
        """The flow's origin-destination pair."""
        return (self.origin, self.destination)


def offered_load_vector(flows: Sequence[Flow], now_s: float) -> np.ndarray:
    """Offered load of every flow at *now_s* as a dense array.

    Demand profiles are arbitrary Python callables, so evaluating them is
    the one per-flow step the vectorized engine cannot avoid; this helper
    at least materialises the result directly into the array the fair-share
    computation consumes.
    """
    return np.fromiter(
        (flow.offered_load(now_s) for flow in flows), dtype=float, count=len(flows)
    )
