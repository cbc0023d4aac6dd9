"""The REsPoNse framework front-end (Section 4).

:func:`build_response_plan` runs the complete off-line pipeline:

1. compute the **always-on** paths (minimal power, optionally
   latency-bounded — REsPoNse-lat),
2. compute one or more **on-demand** tables (stress-factor exclusion by
   default; peak-matrix, GreenTE-heuristic and OSPF variants reproduce the
   paper's REsPoNse / REsPoNse-heuristic / REsPoNse-ospf flavours),
3. compute the **failover** paths (maximally disjoint from the above).

The resulting :class:`~repro.core.plan.ResponsePlan` is what gets installed
into the network; the online component (:mod:`repro.core.planner` for trace
replays, :mod:`repro.core.te` for the packet/flow-level simulator) only picks
among the installed paths at run time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Iterable, Optional, TypeGuard

from ..exceptions import ConfigurationError
from ..power.model import PowerModel
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from .always_on import compute_always_on
from .failover import compute_failover
from .on_demand import compute_on_demand
from .plan import ResponsePlan
from .stress import DEFAULT_EXCLUDE_FRACTION

#: The on-demand computation methods of Section 4.2.
ON_DEMAND_METHODS = ("stress", "peak", "heuristic", "ospf")


def _is_real(value: Any) -> TypeGuard[float]:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_k(k: Any) -> int:
    """*k*, the candidate paths per pair, if it is a positive ``int``."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return k


def check_utilisation_limit(limit: Any) -> float:
    """*limit*, the safety margin ``sm`` on capacities, if it is in (0, 1]."""
    if not (_is_real(limit) and 0.0 < limit <= 1.0):
        raise ConfigurationError(f"utilisation_limit must be a number in (0, 1], got {limit!r}")
    return limit


@dataclass
class ResponseConfig:
    """End-to-end configuration of the off-line path computation, and the one
    place its parameters are validated.

    Attributes:
        num_paths: Total number of energy-critical paths per pair (the
            paper's N; defaults to 3: always-on, one on-demand, failover).
        latency_beta: When set, bound always-on path delay to
            ``(1 + beta) * delay_OSPF`` (REsPoNse-lat; needs the MILP).
        on_demand_method: One of :data:`ON_DEMAND_METHODS`.
        stress_exclude_fraction: Fraction of most-stressed links excluded by
            the stress-factor method.
        k: Candidate paths per pair for the solvers.
        utilisation_limit: Safety margin ``sm`` on link capacities.
    """

    num_paths: int = 3
    latency_beta: Optional[float] = None
    on_demand_method: str = "stress"
    stress_exclude_fraction: float = DEFAULT_EXCLUDE_FRACTION
    k: int = 3
    utilisation_limit: float = 1.0

    def __post_init__(self) -> None:
        if self.num_paths < 2:
            raise ConfigurationError(
                f"REsPoNse needs at least 2 paths per pair, got {self.num_paths}"
            )
        check_k(self.k)
        check_utilisation_limit(self.utilisation_limit)
        if self.on_demand_method not in ON_DEMAND_METHODS:
            raise ConfigurationError(
                f"unknown on-demand method {self.on_demand_method!r}; "
                f"expected one of {ON_DEMAND_METHODS}"
            )
        if self.latency_beta is not None and self.latency_beta < 0:
            raise ConfigurationError(
                f"latency_beta must be non-negative, got {self.latency_beta}"
            )
        if not 0.0 <= self.stress_exclude_fraction <= 1.0:
            raise ConfigurationError(
                "stress_exclude_fraction must be in [0, 1], "
                f"got {self.stress_exclude_fraction}"
            )

    @property
    def num_on_demand_tables(self) -> int:
        """Number of on-demand tables: N minus always-on minus failover."""
        return max(1, self.num_paths - 2)


def build_response_plan(
    topology: Topology,
    power_model: PowerModel,
    pairs: Optional[Iterable[Pair]] = None,
    peak_matrix: Optional[TrafficMatrix] = None,
    config: Optional[ResponseConfig] = None,
) -> ResponsePlan:
    """Run the complete off-line REsPoNse computation.

    Args:
        topology: The physical topology.
        power_model: Power coefficients minimised by the path computations.
        pairs: Origin-destination pairs to install; defaults to all ordered
            pairs of non-host nodes.
        peak_matrix: Optional ``d_peak`` estimate for the on-demand paths.
        config: Full configuration; defaults to ``ResponseConfig()``.

    Returns:
        The computed :class:`ResponsePlan`.
    """
    if config is None:
        config = ResponseConfig()

    always_on = compute_always_on(
        topology,
        power_model,
        config,
        pairs=pairs,
    )

    on_demand = compute_on_demand(
        topology,
        power_model,
        always_on,
        config,
        pairs=pairs,
        peak_matrix=peak_matrix,
    )

    assert always_on.routing is not None  # compute_on_demand refuses a solution without one
    return ResponsePlan(
        always_on=always_on,
        on_demand=on_demand,
        failover=compute_failover(topology, [always_on.routing, *on_demand], pairs=pairs),
        topology_name=topology.name,
        variant=_infer_variant_name(config),
    )


def _infer_variant_name(config: ResponseConfig) -> str:
    if config.latency_beta is not None:
        return "response-lat"
    if config.on_demand_method == "ospf":
        return "response-ospf"
    if config.on_demand_method == "heuristic":
        return "response-heuristic"
    return "response"
