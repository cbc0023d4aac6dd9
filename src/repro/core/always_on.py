"""Computation of the always-on paths (Section 4.1).

"The goal of the always-on paths is to provide a routing that can carry low
to medium amounts of traffic at the lowest power consumption."  They are
obtained by solving the energy-minimisation problem demand-obliviously:
every flow set to a tiny ε such as 1 bit/s, which yields a minimal-power
routing with full connectivity (the paper's alternative, an off-peak matrix
estimate ``d_low`` as the demand, is not implemented).

The *REsPoNse-lat* variant adds constraint (4): every always-on path's
propagation delay must stay within ``(1 + β)`` of the OSPF-InvCap delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..exceptions import ConfigurationError
from ..optim.greedy import greedy_minimum_subset
from ..optim.pathmilp import PathMilpConfig, solve_path_milp
from ..optim.solution import EnergyAwareSolution
from ..power.model import PowerModel
from ..routing.ksp import CandidatePaths
from ..routing.ospf import ospf_delays
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix, all_pairs


@dataclass
class AlwaysOnConfig:
    """Configuration of the always-on path computation.

    Attributes:
        method: ``"milp"`` (path-restricted MILP, default) or ``"greedy"``
            (Chiaraviglio-style subset followed by shortest-path routing).
        k: Candidate paths per pair for the MILP.
        latency_beta: When not ``None``, enforce the REsPoNse-lat constraint
            ``delay <= (1 + beta) * delay_OSPF`` for every pair.
        utilisation_limit: Safety margin ``sm`` applied to link capacities.
        time_limit_s: Solver time limit.
    """

    method: str = "milp"
    k: int = 3
    latency_beta: Optional[float] = None
    utilisation_limit: float = 1.0
    time_limit_s: Optional[float] = 60.0

    def __post_init__(self) -> None:
        if self.method not in ("milp", "greedy"):
            raise ConfigurationError(f"unknown always-on method: {self.method!r}")
        if self.latency_beta is not None and self.latency_beta < 0:
            raise ConfigurationError(
                f"latency_beta must be non-negative, got {self.latency_beta}"
            )


def compute_always_on(
    topology: Topology,
    power_model: PowerModel,
    pairs: Optional[Iterable[Pair]] = None,
    config: Optional[AlwaysOnConfig] = None,
    candidate_paths: Optional[CandidatePaths] = None,
) -> EnergyAwareSolution:
    """Compute the always-on paths and the elements they keep active.

    Args:
        topology: The physical topology.
        power_model: Power coefficients minimised by the computation.
        pairs: Origin-destination pairs requiring connectivity; defaults to
            all ordered pairs of non-host nodes.
        config: Tuning knobs; defaults to :class:`AlwaysOnConfig`.
        candidate_paths: Shared candidate-path provider handed to the MILP.

    Returns:
        An :class:`EnergyAwareSolution` whose routing table holds the
        always-on path of every pair.
    """
    cfg = config or AlwaysOnConfig()
    selected: List[Pair] = list(pairs) if pairs is not None else all_pairs(topology.routers())
    demands = TrafficMatrix.epsilon(selected, name="always-on-epsilon")

    latency_bound: Optional[Dict[Pair, float]] = None
    if cfg.latency_beta is not None:
        reference = ospf_delays(topology, pairs=selected)
        latency_bound = {
            pair: (1.0 + cfg.latency_beta) * delay for pair, delay in reference.items()
        }

    if cfg.method == "greedy":
        solution = greedy_minimum_subset(
            topology,
            power_model,
            demands,
            utilisation_limit=cfg.utilisation_limit,
        )
        solution.solver = "always-on-greedy"
        return solution

    milp_config = PathMilpConfig(
        k=cfg.k,
        utilisation_limit=cfg.utilisation_limit,
        time_limit_s=cfg.time_limit_s,
    )
    solution = solve_path_milp(
        topology,
        power_model,
        demands,
        config=milp_config,
        candidate_paths=candidate_paths,
        latency_bound=latency_bound,
        solver_name="always-on-lat" if cfg.latency_beta is not None else "always-on",
    )
    return solution
