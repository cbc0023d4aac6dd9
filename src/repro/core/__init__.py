"""The paper's primary contribution: the REsPoNse framework.

Off-line path computation (always-on, on-demand, failover), energy-critical
path identification, the trace-replay activation planner and the REsPoNseTE
online controller.
"""

from .always_on import compute_always_on
from .critical_paths import (
    RankedPath,
    coverage_curve,
    paths_needed_for_coverage,
    rank_paths_by_traffic,
)
from .failover import compute_failover
from .on_demand import compute_on_demand
from .plan import ResponsePlan
from .planner import DEFAULT_UTILISATION_THRESHOLD, ActivationResult, activate_paths
from .response import ON_DEMAND_METHODS, ResponseConfig, build_response_plan
from .stress import DEFAULT_EXCLUDE_FRACTION, most_stressed_links, stress_factors
from .te import ResponseTEController, TEConfig

__all__ = [
    "compute_always_on",
    "RankedPath",
    "coverage_curve",
    "paths_needed_for_coverage",
    "rank_paths_by_traffic",
    "compute_failover",
    "ON_DEMAND_METHODS",
    "compute_on_demand",
    "ResponsePlan",
    "DEFAULT_UTILISATION_THRESHOLD",
    "ActivationResult",
    "activate_paths",
    "ResponseConfig",
    "build_response_plan",
    "DEFAULT_EXCLUDE_FRACTION",
    "most_stressed_links",
    "stress_factors",
    "ResponseTEController",
    "TEConfig",
]
