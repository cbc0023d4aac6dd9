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

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..optim.pathmilp import solve_path_milp
from ..optim.solution import EnergyAwareSolution
from ..power.model import PowerModel
from ..routing.ksp import CandidatePaths
from ..routing.ospf import ospf_delays
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix, all_pairs

if TYPE_CHECKING:  # pragma: no cover - typing only (response imports this module)
    from .response import ResponseConfig


def compute_always_on(
    topology: Topology,
    power_model: PowerModel,
    config: "ResponseConfig",
    pairs: Optional[Iterable[Pair]] = None,
    candidate_paths: Optional[CandidatePaths] = None,
) -> EnergyAwareSolution:
    """Compute the always-on paths and the elements they keep active.

    Args:
        topology: The physical topology.
        power_model: Power coefficients minimised by the computation.
        config: The REsPoNse configuration; read here are ``latency_beta``,
            ``k`` and ``utilisation_limit`` of the path-restricted MILP.
        pairs: Origin-destination pairs requiring connectivity; defaults to
            all ordered pairs of non-host nodes.
        candidate_paths: Shared candidate-path provider handed to the MILP.

    Returns:
        An :class:`EnergyAwareSolution` whose routing table holds the
        always-on path of every pair.
    """
    selected: List[Pair] = list(pairs) if pairs is not None else all_pairs(topology.routers())
    demands = TrafficMatrix.epsilon(selected, name="always-on-epsilon")

    latency_bound: Optional[Dict[Pair, float]] = None
    if config.latency_beta is not None:
        reference = ospf_delays(topology, pairs=selected)
        latency_bound = {
            pair: (1.0 + config.latency_beta) * delay for pair, delay in reference.items()
        }
    return solve_path_milp(
        topology,
        power_model,
        demands,
        k=config.k,
        utilisation_limit=config.utilisation_limit,
        candidate_paths=candidate_paths,
        latency_bound=latency_bound,
        solver_name="always-on-lat" if config.latency_beta is not None else "always-on",
    )
