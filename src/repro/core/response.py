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

from dataclasses import dataclass
from typing import Iterable, Optional

from ..exceptions import ConfigurationError
from ..power.model import PowerModel
from ..routing.ksp import CandidatePaths
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from .always_on import AlwaysOnConfig, compute_always_on
from .failover import compute_failover
from .on_demand import OnDemandConfig, compute_on_demand
from .plan import ResponsePlan


@dataclass
class ResponseConfig:
    """End-to-end configuration of the off-line path computation.

    Attributes:
        num_paths: Total number of energy-critical paths per pair (the
            paper's N; defaults to 3: always-on, one on-demand, failover).
        latency_beta: When set, bound always-on path delay to
            ``(1 + beta) * delay_OSPF`` (REsPoNse-lat).
        on_demand_method: ``"stress"``, ``"peak"``, ``"heuristic"`` or
            ``"ospf"``.
        stress_exclude_fraction: Fraction of most-stressed links excluded by
            the stress-factor method.
        k: Candidate paths per pair for the solvers.
        utilisation_limit: Safety margin ``sm`` on link capacities.
        always_on_method: ``"milp"`` or ``"greedy"``.
        include_failover: Compute the failover table (on by default).
        time_limit_s: Per-solve time limit.
    """

    num_paths: int = 3
    latency_beta: Optional[float] = None
    on_demand_method: str = "stress"
    stress_exclude_fraction: float = 0.20
    k: int = 3
    utilisation_limit: float = 1.0
    always_on_method: str = "milp"
    include_failover: bool = True
    time_limit_s: Optional[float] = 60.0

    def __post_init__(self) -> None:
        if self.num_paths < 2:
            raise ConfigurationError(
                f"REsPoNse needs at least 2 paths per pair, got {self.num_paths}"
            )

    @property
    def num_on_demand_tables(self) -> int:
        """Number of on-demand tables: N minus always-on minus failover."""
        reserved = 2 if self.include_failover else 1
        return max(1, self.num_paths - reserved)


def build_response_plan(
    topology: Topology,
    power_model: PowerModel,
    pairs: Optional[Iterable[Pair]] = None,
    peak_matrix: Optional[TrafficMatrix] = None,
    config: Optional[ResponseConfig] = None,
    candidate_paths: Optional[CandidatePaths] = None,
) -> ResponsePlan:
    """Run the complete off-line REsPoNse computation.

    Args:
        topology: The physical topology.
        power_model: Power coefficients minimised by the path computations.
        pairs: Origin-destination pairs to install; defaults to all ordered
            pairs of non-host nodes.
        peak_matrix: Optional ``d_peak`` estimate for the on-demand paths.
        config: Full configuration; defaults to ``ResponseConfig()``.
        candidate_paths: The candidate-path provider every solver of the
            pipeline draws from, so one plan build enumerates each pair's
            k shortest paths once; defaults to one private to this build.

    Returns:
        The computed :class:`ResponsePlan`.
    """
    if config is None:
        config = ResponseConfig()
    if candidate_paths is None:
        candidate_paths = CandidatePaths(topology)

    always_on = compute_always_on(
        topology,
        power_model,
        pairs=pairs,
        config=AlwaysOnConfig(
            method=config.always_on_method,
            k=config.k,
            latency_beta=config.latency_beta,
            utilisation_limit=config.utilisation_limit,
            time_limit_s=config.time_limit_s,
        ),
        candidate_paths=candidate_paths,
    )

    on_demand = compute_on_demand(
        topology,
        power_model,
        always_on,
        pairs=pairs,
        peak_matrix=peak_matrix,
        config=OnDemandConfig(
            method=config.on_demand_method,
            num_tables=config.num_on_demand_tables,
            stress_exclude_fraction=config.stress_exclude_fraction,
            k=config.k,
            utilisation_limit=config.utilisation_limit,
            time_limit_s=config.time_limit_s,
        ),
        candidate_paths=candidate_paths,
    )

    failover = None
    if config.include_failover:
        failover = compute_failover(
            topology,
            [always_on.routing, *on_demand],
            pairs=pairs,
        )

    return ResponsePlan(
        always_on=always_on,
        on_demand=on_demand,
        failover=failover,
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
