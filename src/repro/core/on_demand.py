"""Computation of the on-demand paths (Section 4.2).

The on-demand paths "start carrying traffic when the load is beyond the
capacity offered by the always-on paths".  The paper describes four ways to
obtain them, all reproduced here:

* ``"peak"`` — re-solve the optimisation with the peak-hour matrix
  ``d_peak`` while keeping every element of the always-on solution powered
  on,
* ``"stress"`` — the demand-oblivious default: exclude the most-stressed
  fraction of the always-on links and re-solve with ε demands,
* ``"heuristic"`` — use an existing heuristic (GreenTE) — *REsPoNse-heuristic*,
* ``"ospf"`` — simply reuse the OSPF-InvCap table — *REsPoNse-ospf*.

The computation is repeated ``N - 2`` times when ``N`` energy-critical paths
are requested (two slots are reserved for the always-on and failover sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..exceptions import ConfigurationError
from ..optim.greente import greente_heuristic
from ..optim.pathmilp import PathMilpConfig, solve_path_milp
from ..optim.solution import EnergyAwareSolution
from ..power.model import PowerModel
from ..routing.ksp import CandidatePaths
from ..routing.ospf import ospf_invcap_routing
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from .stress import DEFAULT_EXCLUDE_FRACTION, most_stressed_links, stress_factors

#: The on-demand computation methods accepted by :func:`compute_on_demand`.
ON_DEMAND_METHODS = ("stress", "peak", "heuristic", "ospf")


@dataclass
class OnDemandConfig:
    """Configuration of the on-demand path computation.

    Attributes:
        method: One of :data:`ON_DEMAND_METHODS`.
        num_tables: How many on-demand tables to produce (``N - 2`` in the
            paper's notation).
        stress_exclude_fraction: Fraction of most-stressed links each table
            avoids (scaled per table index for successive tables).
        k: Candidate paths per pair for solver-based methods.
        utilisation_limit: Safety margin on link capacities.
        time_limit_s: Solver time limit per table.
    """

    method: str = "stress"
    num_tables: int = 1
    stress_exclude_fraction: float = DEFAULT_EXCLUDE_FRACTION
    k: int = 3
    utilisation_limit: float = 1.0
    time_limit_s: Optional[float] = 60.0

    def __post_init__(self) -> None:
        if self.method not in ON_DEMAND_METHODS:
            raise ConfigurationError(
                f"unknown on-demand method {self.method!r}; expected one of {ON_DEMAND_METHODS}"
            )
        if self.num_tables < 1:
            raise ConfigurationError(f"num_tables must be >= 1, got {self.num_tables}")
        if not 0.0 <= self.stress_exclude_fraction <= 1.0:
            raise ConfigurationError(
                "stress_exclude_fraction must be in [0, 1], "
                f"got {self.stress_exclude_fraction}"
            )


def compute_on_demand(
    topology: Topology,
    power_model: PowerModel,
    always_on: EnergyAwareSolution,
    pairs: Optional[Iterable[Pair]] = None,
    peak_matrix: Optional[TrafficMatrix] = None,
    config: Optional[OnDemandConfig] = None,
    candidate_paths: Optional[CandidatePaths] = None,
) -> List[RoutingTable]:
    """Compute the on-demand routing tables.

    Args:
        topology: The physical topology.
        power_model: Power coefficients for the solver-based methods.
        always_on: The always-on solution; its elements are kept powered on
            ("a network element already in use stays switched on") and its
            routing defines the stress factors.
        pairs: Pairs to install; defaults to the always-on table's pairs.
        peak_matrix: Peak-hour matrix ``d_peak`` (required by ``"peak"``,
            used by ``"heuristic"`` when available).
        config: Tuning knobs; defaults to :class:`OnDemandConfig`.
        candidate_paths: Candidate-path provider shared by every solver
            call (and with the always-on computation); defaults to one
            private to this call.

    Returns:
        A list of ``config.num_tables`` routing tables.

    Raises:
        ConfigurationError: If ``method="peak"`` without a peak matrix or the
            always-on solution has no routing table.
    """
    cfg = config or OnDemandConfig()
    if always_on.routing is None:
        raise ConfigurationError("the always-on solution carries no routing table")
    selected: List[Pair] = (
        list(pairs) if pairs is not None else list(always_on.routing.pairs())
    )
    if candidate_paths is None:
        candidate_paths = CandidatePaths(topology)

    tables: List[RoutingTable] = []
    for table_index in range(cfg.num_tables):
        if cfg.method == "ospf":
            table = ospf_invcap_routing(topology, pairs=selected, name="on-demand-ospf")
        elif cfg.method == "heuristic":
            demands = (
                peak_matrix.restricted_to(selected)
                if peak_matrix is not None
                else TrafficMatrix.epsilon(selected)
            )
            solution = greente_heuristic(
                topology,
                power_model,
                demands,
                k=cfg.k + table_index,
                utilisation_limit=cfg.utilisation_limit,
                candidate_paths=candidate_paths,
                fixed_on_nodes=always_on.active_nodes,
                fixed_on_links=always_on.active_links,
                allow_overload=True,
            )
            table = RoutingTable(
                dict(solution.routing.items()), name=f"on-demand-heuristic-{table_index}"
            )
        elif cfg.method == "peak":
            if peak_matrix is None:
                raise ConfigurationError("method 'peak' requires a peak traffic matrix")
            solution = solve_path_milp(
                topology,
                power_model,
                peak_matrix.restricted_to(selected),
                config=PathMilpConfig(
                    k=cfg.k,
                    utilisation_limit=cfg.utilisation_limit,
                    time_limit_s=cfg.time_limit_s,
                ),
                candidate_paths=candidate_paths,
                fixed_on_nodes=always_on.active_nodes,
                fixed_on_links=always_on.active_links,
                solver_name=f"on-demand-peak-{table_index}",
            )
            table = solution.routing
        else:  # "stress"
            factors = stress_factors(topology, always_on.routing, pairs=selected)
            fraction = min(1.0, cfg.stress_exclude_fraction * (table_index + 1))
            forbidden = most_stressed_links(factors, fraction)
            demands = TrafficMatrix.epsilon(selected)
            solution = solve_path_milp(
                topology,
                power_model,
                demands,
                config=PathMilpConfig(
                    k=cfg.k,
                    utilisation_limit=cfg.utilisation_limit,
                    time_limit_s=cfg.time_limit_s,
                ),
                candidate_paths=candidate_paths,
                fixed_on_nodes=always_on.active_nodes,
                fixed_on_links=always_on.active_links,
                forbidden_links=forbidden,
                solver_name=f"on-demand-stress-{table_index}",
            )
            table = solution.routing
        tables.append(table)
    return tables
