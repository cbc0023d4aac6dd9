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

from typing import TYPE_CHECKING, Iterable, List, Optional

from ..exceptions import ConfigurationError
from ..optim.greente import greente_heuristic
from ..optim.pathmilp import solve_path_milp
from ..optim.solution import EnergyAwareSolution
from ..power.model import PowerModel
from ..routing.ksp import CandidatePaths
from ..routing.ospf import ospf_invcap_routing
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from .stress import most_stressed_links, stress_factors

if TYPE_CHECKING:  # pragma: no cover - typing only (response imports this module)
    from .response import ResponseConfig


def compute_on_demand(
    topology: Topology,
    power_model: PowerModel,
    always_on: EnergyAwareSolution,
    config: "ResponseConfig",
    pairs: Optional[Iterable[Pair]] = None,
    peak_matrix: Optional[TrafficMatrix] = None,
    candidate_paths: Optional[CandidatePaths] = None,
) -> List[RoutingTable]:
    """Compute the on-demand routing tables.

    Args:
        topology: The physical topology.
        power_model: Power coefficients for the solver-based methods.
        always_on: The always-on solution; its elements are kept powered on
            ("a network element already in use stays switched on") and its
            routing defines the stress factors.
        config: The REsPoNse configuration; read here are
            ``on_demand_method``, ``num_on_demand_tables``,
            ``stress_exclude_fraction`` (scaled per table index for
            successive tables), ``k``, ``utilisation_limit``.
        pairs: Pairs to install; defaults to the always-on table's pairs.
        peak_matrix: Peak-hour matrix ``d_peak`` (required by ``"peak"``,
            used by ``"heuristic"`` when available).
        candidate_paths: Candidate-path provider shared by every solver
            call (and with the always-on computation); defaults to one
            private to this call.

    Returns:
        A list of ``config.num_on_demand_tables`` routing tables.

    Raises:
        ConfigurationError: If the method is ``"peak"`` without a peak matrix
            or the always-on solution has no routing table.
    """
    if always_on.routing is None:
        raise ConfigurationError("the always-on solution carries no routing table")
    selected: List[Pair] = (
        list(pairs) if pairs is not None else list(always_on.routing.pairs())
    )
    if candidate_paths is None:
        candidate_paths = CandidatePaths(topology)

    tables: List[RoutingTable] = []
    for table_index in range(config.num_on_demand_tables):
        if config.on_demand_method == "ospf":
            table = ospf_invcap_routing(topology, pairs=selected, name="on-demand-ospf")
        elif config.on_demand_method == "heuristic":
            demands = (
                peak_matrix.restricted_to(selected)
                if peak_matrix is not None
                else TrafficMatrix.epsilon(selected)
            )
            solution = greente_heuristic(
                topology,
                power_model,
                demands,
                k=config.k + table_index,
                utilisation_limit=config.utilisation_limit,
                candidate_paths=candidate_paths,
                fixed_on_nodes=always_on.active_nodes,
                fixed_on_links=always_on.active_links,
                allow_overload=True,
            )
            table = RoutingTable(
                dict(solution.routing.items()), name=f"on-demand-heuristic-{table_index}"
            )
        else:  # the path MILP: on the peak matrix, or on ε demands off the stressed links
            forbidden = None
            if config.on_demand_method == "peak":
                if peak_matrix is None:
                    raise ConfigurationError("method 'peak' requires a peak traffic matrix")
                demands = peak_matrix.restricted_to(selected)
            else:
                factors = stress_factors(topology, always_on.routing, pairs=selected)
                fraction = min(1.0, config.stress_exclude_fraction * (table_index + 1))
                forbidden = most_stressed_links(factors, fraction)
                demands = TrafficMatrix.epsilon(selected)
            table = solve_path_milp(
                topology,
                power_model,
                demands,
                k=config.k,
                utilisation_limit=config.utilisation_limit,
                candidate_paths=candidate_paths,
                fixed_on_nodes=always_on.active_nodes,
                fixed_on_links=always_on.active_links,
                forbidden_links=forbidden,
                solver_name=f"on-demand-{config.on_demand_method}-{table_index}",
            ).routing
        tables.append(table)
    return tables
