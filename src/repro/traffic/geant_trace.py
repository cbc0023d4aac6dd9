"""Synthetic GÉANT-like traffic-matrix trace.

The paper replays "a 15-day long trace from 25 May 2005" of GÉANT traffic
matrices measured over 15-minute intervals (Uhlig et al. [33]).  The original
matrices are not redistributable, so this generator produces a trace with the
same structure and the statistical features the paper's analysis relies on:

* strong diurnal variation (busy European daytime, quiet nights),
* a weekly pattern (weekend dip),
* per-pair lognormal short-term variability at the 15-minute timescale,
* occasional demand spikes (flash events) that force extra capacity,
* gravity-like spatial structure (big PoPs exchange the most traffic).

The generator is fully deterministic given its seed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import TrafficError
from ..topology.base import Topology
from ..units import DAY, gbps, minutes
from .gravity import gravity_fractions
from .matrix import Pair, TrafficMatrix, select_random_pairs
from .replay import TrafficTrace

#: Trace geometry of the paper's GÉANT dataset.
GEANT_INTERVAL_S = minutes(15)
GEANT_TRACE_DAYS = 15

#: Default peak aggregate demand.  The 2005 GÉANT network carried a few
#: gigabits per second in aggregate; the exact value only sets the operating
#: point relative to link capacities.
DEFAULT_PEAK_TOTAL_BPS = gbps(18)

#: Start date used for human-readable timestamps (25 May 2005, as in the paper).
TRACE_START_LABEL = "2005-05-25"


def diurnal_factor(time_s: float) -> float:
    """Relative demand level as a function of time of day, in ``[0.25, 1.0]``.

    The shape is a smooth double-humped European business-day profile: a
    morning ramp, a mid-day plateau, an evening peak and a deep night trough.
    """
    hour = (time_s % DAY) / 3_600.0
    base = 0.25
    business = 0.45 * math.exp(-((hour - 14.0) ** 2) / (2.0 * 4.0**2))
    evening = 0.30 * math.exp(-((hour - 20.5) ** 2) / (2.0 * 2.0**2))
    return min(1.0, base + business + evening)


#: Demand level of a weekend day relative to a weekday.
WEEKEND_LEVEL = 0.7


def weekly_factor(time_s: float) -> float:
    """Relative demand level as a function of day of week.

    Days 5 and 6 (Saturday, Sunday relative to the trace start) are scaled by
    :data:`WEEKEND_LEVEL`.
    """
    day_index = int(time_s // DAY) % 7
    return WEEKEND_LEVEL if day_index in (5, 6) else 1.0


def generate_geant_trace(
    topology: Topology,
    num_days: int = GEANT_TRACE_DAYS,
    interval_s: float = GEANT_INTERVAL_S,
    peak_total_bps: float = DEFAULT_PEAK_TOTAL_BPS,
    num_pairs: Optional[int] = None,
    pairs: Optional[Sequence[Pair]] = None,
    pair_noise_sigma: float = 0.25,
    spike_probability: float = 0.01,
    spike_magnitude: float = 2.5,
    seed: int = 2005,
) -> TrafficTrace:
    """Generate the synthetic GÉANT-like 15-minute traffic-matrix trace.

    Args:
        topology: The GÉANT-like topology (used for gravity weights and the
            PoP name set).
        num_days: Trace length in days (the paper uses 15).
        interval_s: Measurement interval (the paper's dataset uses 15 min).
        peak_total_bps: Aggregate demand at the busiest instant of a weekday.
        num_pairs: When given, restrict the matrix to this many random
            origin-destination pairs (the paper selects random subsets of
            origins and destinations); ``None`` keeps all pairs.
        pairs: Explicit origin-destination pairs to use (overrides
            *num_pairs*); lets experiments share one pair selection between
            the trace and the REsPoNse plan.
        pair_noise_sigma: Standard deviation of the per-pair lognormal noise
            applied every interval — the source of short-term variability.
        spike_probability: Per-interval probability that some pair experiences
            a flash-crowd spike.
        spike_magnitude: Multiplier applied to a spiking pair's demand.
        seed: Seed of the deterministic generator.

    Returns:
        A :class:`TrafficTrace` of ``num_days * 86400 / interval_s`` matrices.
    """
    if num_days <= 0:
        raise TrafficError(f"num_days must be positive, got {num_days}")
    rng = np.random.default_rng(seed)

    selected: Sequence[Pair]
    if pairs is not None:
        selected = list(pairs)
        fractions = gravity_fractions(topology, pairs=selected)
    elif num_pairs is None:
        fractions = gravity_fractions(topology)
        selected = list(fractions)
    else:
        selected = select_random_pairs(topology.routers(), num_pairs, seed=seed)
        fractions = gravity_fractions(topology, pairs=selected)

    pair_list: List[Pair] = list(selected)
    base_fraction = np.array([fractions[pair] for pair in pair_list])
    base_fraction = base_fraction / base_fraction.sum()

    intervals_per_day = int(round(DAY / interval_s))
    num_intervals = num_days * intervals_per_day

    # Slowly varying per-pair popularity (an AR(1) process in log space) so
    # that which paths are "critical" can drift over the trace, as real
    # matrices do, while the gravity structure dominates.
    log_popularity = np.zeros(len(pair_list))
    popularity_phi = 0.98
    popularity_sigma = 0.05

    matrices: List[TrafficMatrix] = []
    for index in range(num_intervals):
        time_s = index * interval_s
        level = diurnal_factor(time_s) * weekly_factor(time_s)

        log_popularity = popularity_phi * log_popularity + rng.normal(
            0.0, popularity_sigma, size=len(pair_list)
        )
        noise = rng.lognormal(mean=0.0, sigma=pair_noise_sigma, size=len(pair_list))
        weights = base_fraction * np.exp(log_popularity) * noise

        if rng.random() < spike_probability:
            spike_index = int(rng.integers(0, len(pair_list)))
            weights[spike_index] *= spike_magnitude

        weights = weights / weights.sum()
        total = peak_total_bps * level
        demands: Dict[Pair, float] = {
            pair: float(total * weight) for pair, weight in zip(pair_list, weights, strict=True)
        }
        matrices.append(TrafficMatrix(demands, name=f"geant-{index}"))

    return TrafficTrace(
        matrices, interval_s=interval_s, name=f"geant-{num_days}d"
    )


def trace_time_labels(trace: TrafficTrace) -> List[str]:
    """Human-readable "May-28"-style labels for a GÉANT trace's intervals.

    Only used for reporting; the trace itself works in seconds since start.
    """
    from datetime import datetime, timedelta

    start = datetime.strptime(TRACE_START_LABEL, "%Y-%m-%d")
    labels = []
    for timestamp in trace.timestamps():
        moment = start + timedelta(seconds=timestamp)
        labels.append(moment.strftime("%b-%d %H:%M"))
    return labels
