"""Offline path activation: which installed paths carry a given demand.

Trace-replay experiments (Figures 4, 5, 6 of the paper) need, for every
traffic matrix of a trace, the network state REsPoNseTE would converge to:
traffic aggregated onto the always-on paths while the utilisation SLO holds,
on-demand paths (and their elements) activated only for the pairs that need
them.  :func:`activate_paths` computes exactly that steady state without
simulating the control loop (the control loop itself lives in
:mod:`repro.core.te` and runs on the flow-level simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..power.accounting import full_power, network_power
from ..power.model import PowerModel
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from .plan import ResponsePlan

#: Default utilisation threshold at which on-demand paths start activating.
DEFAULT_UTILISATION_THRESHOLD = 0.9


@dataclass
class ActivationResult:
    """Steady-state outcome of placing one traffic matrix on a plan.

    Attributes:
        assignment: Chosen table index per pair (0 = always-on, then the
            on-demand tables in order, then failover if allowed).
        active_nodes: Powered-on nodes (always-on elements plus elements of
            activated on-demand paths).
        active_links: Active undirected links.
        power_w: Power of the active subset.
        power_percent: Power as a percentage of the fully-powered network.
        max_utilisation: Largest arc utilisation of the placement.
        overloaded_pairs: Pairs whose demand could not be placed within the
            utilisation threshold on any installed path (they are placed on
            their least-loaded path instead).
    """

    assignment: Dict[Pair, int]
    active_nodes: Set[str]
    active_links: Set[Tuple[str, str]]
    power_w: float
    power_percent: float
    max_utilisation: float
    overloaded_pairs: List[Pair] = field(default_factory=list)

    @property
    def num_on_demand_pairs(self) -> int:
        """Number of pairs routed over a non-always-on path."""
        return sum(1 for index in self.assignment.values() if index > 0)

    def energy_savings_percent(self) -> float:
        """Savings relative to the fully powered network."""
        return 100.0 - self.power_percent


def activate_paths(
    topology: Topology,
    power_model: PowerModel,
    plan: ResponsePlan,
    demands: TrafficMatrix,
    utilisation_threshold: float = DEFAULT_UTILISATION_THRESHOLD,
    include_failover: bool = False,
    failed_links: Optional[Set[Tuple[str, str]]] = None,
    failed_nodes: Optional[Set[str]] = None,
) -> ActivationResult:
    """Place a traffic matrix on the plan's installed paths.

    Pairs are placed in descending order of demand.  Each pair uses the first
    installed path (always-on first, then the on-demand tables in order, then
    optionally failover) whose arcs all stay below the utilisation threshold
    after adding the pair's demand; if no installed path fits, the pair is
    placed on the installed path with the most residual bottleneck capacity
    and recorded in ``overloaded_pairs``.

    Args:
        topology: The physical topology.
        power_model: Power model for the resulting active subset.
        plan: The REsPoNse plan.
        demands: The traffic matrix to place.
        utilisation_threshold: The ISP's link-utilisation SLO (the paper's
            threshold that triggers on-demand activation).
        include_failover: Allow traffic on failover paths even without
            failures (normally only used when a failure is present).
        failed_links: Undirected links currently out of service (those of
            a failed node included); installed paths crossing them are
            unusable.
        failed_nodes: Nodes currently failed; they draw no power, always-on
            or not.

    Returns:
        The :class:`ActivationResult` describing the converged network state.
    """
    if not 0.0 < utilisation_threshold <= 1.0:
        raise ConfigurationError(
            f"utilisation_threshold must be in (0, 1], got {utilisation_threshold}"
        )
    tables = plan.tables(include_failover=include_failover)
    failed = failed_links or set()

    index = topology.index()
    link_failed = index.link_mask(failed)
    capacity = index.arc_capacity
    limit = capacity * utilisation_threshold + 1e-9
    loads = np.zeros(index.num_arcs)
    assignment: Dict[Pair, int] = {}
    overloaded: List[Pair] = []

    ordered_pairs = sorted(
        (pair for pair in demands.pairs() if demands[pair] > 0.0),
        key=lambda pair: demands[pair],
        reverse=True,
    )
    for pair in ordered_pairs:
        demand = demands[pair]
        candidates: List[Tuple[int, np.ndarray]] = []
        for table_index, table in enumerate(tables):
            path = table.get(*pair)
            if path is not None:
                compiled = index.compile_path(path)
                if not link_failed[compiled.link_indices].any():
                    candidates.append((table_index, compiled.arc_indices))
        if not candidates:
            overloaded.append(pair)
            continue
        for table_index, arcs in candidates:
            if not (loads[arcs] + demand > limit[arcs]).any():
                break
        else:
            # No installed path respects the SLO: fall back to the path with
            # the most remaining bottleneck capacity (congestion, not loss of
            # connectivity — matching the paper's "no worse than existing
            # approaches under unexpected peaks").
            table_index, arcs = max(
                candidates, key=lambda entry: (capacity[entry[1]] - loads[entry[1]]).min()
            )
            overloaded.append(pair)
        assignment[pair] = table_index
        loads[arcs] += demand

    # Elements kept active: the always-on elements are on by definition;
    # elements of on-demand/failover paths are only awake for pairs that use
    # them.
    active_nodes, active_links = plan.always_on_elements()
    active_nodes = set(active_nodes)
    active_links = set(active_links)
    for pair, table_index in assignment.items():
        if table_index == 0:
            continue
        path = tables[table_index].get(*pair)
        if path is None:
            continue
        active_nodes.update(path.nodes)
        active_links.update(path.link_keys())
    active_links -= failed
    active_nodes -= failed_nodes or set()

    breakdown = network_power(topology, power_model, active_nodes, active_links)
    baseline = full_power(topology, power_model).total_w

    return ActivationResult(
        assignment=assignment,
        active_nodes=active_nodes,
        active_links=active_links,
        power_w=breakdown.total_w,
        power_percent=100.0 * breakdown.total_w / baseline if baseline > 0 else 0.0,
        max_utilisation=index.max_utilisation(loads),
        overloaded_pairs=overloaded,
    )


def replay_trace(
    topology: Topology,
    power_model: PowerModel,
    plan: ResponsePlan,
    matrices: List[TrafficMatrix],
) -> List[ActivationResult]:
    """Activate the plan for every matrix of a trace (Figure 5-style replay)."""
    return [activate_paths(topology, power_model, plan, matrix) for matrix in matrices]
