"""Offline path activation: which installed paths carry a given demand.

Trace-replay experiments (Figures 4, 5, 6 of the paper) need, for every
traffic matrix of a trace, the network state REsPoNseTE would converge to:
traffic aggregated onto the always-on paths while the utilisation SLO holds,
on-demand paths (and their elements) activated only for the pairs that need
them.  :func:`activate_paths` computes exactly that steady state without
simulating the control loop (the control loop itself lives in
:mod:`repro.core.te` and runs on the flow-level simulator); both make their
choice through :mod:`repro.core.placement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..power.accounting import full_power, network_power
from ..power.model import PowerModel
from ..simulator.failures import TopologyView
from ..topology.base import Topology
from ..traffic.matrix import Pair, TrafficMatrix
from .placement import InstalledPaths, add_load, choose, usable
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
    view: Optional[TopologyView] = None,
) -> ActivationResult:
    """Place a traffic matrix on the plan's installed paths.

    Pairs are placed in descending order of demand, each by
    :func:`~repro.core.placement.choose`: the first installed path
    (always-on first, then the on-demand tables in order, then failover
    while something is failed) whose arcs all stay below the utilisation
    threshold after adding the pair's demand; if no installed path fits, the
    pair is placed on the installed path with the most residual bottleneck
    capacity and recorded in ``overloaded_pairs``.

    Args:
        topology: The physical topology.
        power_model: Power model for the resulting active subset.
        plan: The REsPoNse plan.
        demands: The traffic matrix to place.
        utilisation_threshold: The ISP's link-utilisation SLO (the paper's
            threshold that triggers on-demand activation).
        view: The failure state, if any: installed paths crossing one of its
            unusable links are skipped, its failed nodes draw no power
            (always-on or not), and failover paths are allowed exactly when
            it has failures.

    Returns:
        The :class:`ActivationResult` describing the converged network state.
    """
    if not 0.0 < utilisation_threshold <= 1.0:
        raise ConfigurationError(
            f"utilisation_threshold must be in (0, 1], got {utilisation_threshold}"
        )
    failover = view is not None and view.has_failures
    unusable = view.unusable_links() if view is not None else frozenset()
    index = topology.index()
    installed = InstalledPaths(index, plan.tables(include_failover=failover))
    link_ok = ~index.link_mask(unusable) if unusable else None
    capacity = index.arc_capacity
    limit = capacity * utilisation_threshold + 1e-9
    loads = np.zeros(index.num_arcs)
    assignment: Dict[Pair, int] = {}
    overloaded: List[Pair] = []
    # Elements kept active: the always-on elements are on by definition;
    # elements of on-demand/failover paths are only awake for pairs that use
    # them.
    active_nodes, active_links = plan.always_on_elements()

    ordered_pairs = sorted(
        (pair for pair in demands.pairs() if demands[pair] > 0.0),
        key=lambda pair: demands[pair],
        reverse=True,
    )
    for pair in ordered_pairs:
        demand = demands[pair]
        entries = installed.of(pair)
        candidates = entries if link_ok is None else usable(entries, link_ok)
        if not candidates:
            overloaded.append(pair)
            continue
        entry, overload = choose(loads, limit, capacity, candidates, demand)
        if overload:
            overloaded.append(pair)
        assignment[pair] = entry.table_index
        add_load(loads, entry, demand)
        if entry.table_index > 0:
            active_nodes.update(entry.path.nodes)
            active_links.update(entry.path.link_keys())
    active_links -= unusable
    if view is not None:
        active_nodes -= view.failed_nodes

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
