"""REsPoNseTE: the simple, scalable online traffic-engineering component.

Section 4.4: "the intermediate routers periodically report the link
utilization, while the edge routers (called agents), based on the reported
information, shift the traffic in a way that preserves network performance
and simultaneously minimizes energy".  Agents

* aggregate traffic on the always-on paths as long as the target SLO
  (a link-utilisation threshold) is achieved,
* activate on-demand paths — waking their sleeping elements — when it is not,
* fall back to failover (or any other usable installed) paths when a link on
  the current path fails,
* only need utilisation information for the paths they originate, collected
  every ``T`` seconds where ``T`` defaults to the maximum network RTT.

Stability follows the TeXCP recipe the paper cites: decisions are made only
at probe epochs, shifts use hysteresis (a lower deactivation threshold), and
a flow moves at most once per probe period.

The probe-epoch aggregation is array-based: the controller works against a
planned per-arc load vector (a copy of the network's
:meth:`~repro.simulator.network.SimulatedNetwork.arc_load_vector`) and
evaluates path utilisations with NumPy gathers over each installed path's
precompiled arc indices.  All installed paths are compiled into the
network's arc table once, at :meth:`ResponseTEController.initialise` time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..routing.paths import Path
from ..simulator.flows import Flow
from ..simulator.network import SimulatedNetwork
from .plan import ResponsePlan


@dataclass
class TEConfig:
    """Tuning knobs of the online controller.

    Attributes:
        utilisation_threshold: SLO above which on-demand paths are activated.
        release_threshold: Hysteresis: traffic returns to the always-on path
            only when its utilisation falls below this value.
        probe_interval_s: Probe period ``T``; ``None`` uses the network's
            maximum RTT (the paper's default), floored at 1 ms so that
            degenerate topologies cannot produce a zero-length epoch; an
            explicit value must be positive for the same reason.
        failure_detection_delay_s: Time before an agent learns that a link on
            one of its paths failed (detection plus propagation to sources).
        start_time_s: Simulation time at which REsPoNseTE starts operating
            (the Click experiment starts it at t = 5 s); before that the
            controller neither shifts traffic nor puts links to sleep.
        initial_table_index: Table the flows start on before the controller's
            first probe (0 = always-on; the Click experiment starts with
            traffic spread on the on-demand paths); non-negative.
    """

    utilisation_threshold: float = 0.9
    release_threshold: float = 0.5
    probe_interval_s: Optional[float] = None
    failure_detection_delay_s: float = 0.1
    start_time_s: float = 0.0
    initial_table_index: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.utilisation_threshold <= 1.0:
            raise ConfigurationError(
                f"utilisation_threshold must be in (0, 1], got {self.utilisation_threshold}"
            )
        if not 0.0 <= self.release_threshold <= self.utilisation_threshold:
            raise ConfigurationError(
                "release_threshold must lie in [0, utilisation_threshold], "
                f"got {self.release_threshold}"
            )
        if self.probe_interval_s is not None and not self.probe_interval_s > 0.0:
            raise ConfigurationError(
                f"probe_interval_s must be positive, got {self.probe_interval_s}"
            )
        if self.initial_table_index < 0:
            raise ConfigurationError(
                f"initial_table_index must be non-negative, got {self.initial_table_index}"
            )


class ResponseTEController:
    """The online TE controller driven by the simulation engine.

    Every step the controller (i) moves flows off failed paths once the
    detection delay has elapsed, (ii) completes deferred shifts whose target
    path finished waking, and — at probe epochs only — (iii) shifts flows
    between the always-on and on-demand tables against a planned per-arc
    load vector, so that flows shifted within one epoch see each other's
    moves (the TeXCP-style stability ingredient).  Finally it puts every
    link not needed by a current or pending path (nor by the always-on
    element set) to sleep.

    At :meth:`initialise` time every installed path of every table is
    compiled into the network's integer-indexed arc table, so the per-epoch
    utilisation checks are NumPy gathers rather than per-arc dict walks.
    """

    def __init__(self, plan: ResponsePlan, config: Optional[TEConfig] = None) -> None:
        self.plan = plan
        self.config = config or TEConfig()
        self._tables = plan.tables(include_failover=True)
        # Load spills onto the on-demand tables only; the failover table is
        # for failures.
        self._num_load_tables = len(plan.tables(include_failover=False))
        self._assignment: Dict[str, int] = {}
        self._pending: Dict[str, Tuple[int, Path]] = {}
        self._failure_noticed_at: Dict[str, float] = {}
        self._next_probe_at = 0.0
        self._probe_interval = 0.0

    # ------------------------------------------------------------------ #
    # Controller interface
    # ------------------------------------------------------------------ #
    def initialise(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        """Assign every flow to its always-on path and set the probe clock.

        Also compiles every installed path into the network's arc table
        (plan-installation time), so the simulation loop never pays the
        path-to-indices translation again.
        """
        for path in self.plan.iter_paths():
            network.compile_path(path)
        self._probe_interval = (
            self.config.probe_interval_s
            if self.config.probe_interval_s is not None
            else max(network.max_rtt(), 1e-3)
        )
        start = max(now_s, self.config.start_time_s)
        self._next_probe_at = start + (
            self._probe_interval if self.config.start_time_s > now_s else 0.0
        )
        for flow in flows:
            preferred = self.config.initial_table_index
            path = self._installed_path(flow, preferred)
            assigned_index = preferred
            if path is None:
                # Fall back to the first table that knows the pair.
                for table_index in range(len(self._tables)):
                    path = self._installed_path(flow, table_index)
                    if path is not None:
                        assigned_index = table_index
                        break
            flow.path = path
            self._assignment[flow.flow_id] = assigned_index
        if now_s + 1e-12 >= self.config.start_time_s:
            self._apply_sleep_policy(network, flows)

    def control(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        """Per-step control hook: failure handling every step, load shifts at probes."""
        if now_s + 1e-12 < self.config.start_time_s:
            return
        self._handle_failures(network, flows, now_s)
        self._apply_pending(network, flows, now_s)
        if now_s + 1e-12 >= self._next_probe_at:
            self._probe_and_shift(network, flows, now_s)
            self._next_probe_at = now_s + self._probe_interval
        self._apply_sleep_policy(network, flows)

    # ------------------------------------------------------------------ #
    # Internal machinery
    # ------------------------------------------------------------------ #
    def _installed_path(self, flow: Flow, table_index: int) -> Optional[Path]:
        if table_index >= len(self._tables):
            return None
        return self._tables[table_index].get(flow.origin, flow.destination)

    def _usable_alternative(
        self, network: SimulatedNetwork, flow: Flow, exclude_index: int
    ) -> Optional[Tuple[int, Path]]:
        """First installed path (any table) that avoids failed links."""
        best_waking: Optional[Tuple[int, Path]] = None
        for table_index in range(len(self._tables)):
            if table_index == exclude_index:
                continue
            path = self._installed_path(flow, table_index)
            if path is None or network.path_has_failure(path):
                continue
            if network.path_is_usable(path):
                return table_index, path
            if best_waking is None:
                best_waking = (table_index, path)
        return best_waking

    def _handle_failures(
        self, network: SimulatedNetwork, flows: List[Flow], now_s: float
    ) -> None:
        delay = self.config.failure_detection_delay_s
        for flow in flows:
            if flow.path is None:
                continue
            if not network.path_has_failure(flow.path):
                self._failure_noticed_at.pop(flow.flow_id, None)
                continue
            noticed = self._failure_noticed_at.setdefault(flow.flow_id, now_s)
            if now_s - noticed + 1e-12 < delay:
                continue
            current_index = self._assignment.get(flow.flow_id, 0)
            alternative = self._usable_alternative(network, flow, current_index)
            if alternative is None:
                continue
            table_index, path = alternative
            network.request_wake(path.link_keys(), now_s)
            flow.path = path
            self._assignment[flow.flow_id] = table_index
            self._pending.pop(flow.flow_id, None)
            self._failure_noticed_at.pop(flow.flow_id, None)

    def _apply_pending(
        self, network: SimulatedNetwork, flows: List[Flow], now_s: float
    ) -> None:
        """Complete deferred shifts whose target path finished waking up."""
        by_id = {flow.flow_id: flow for flow in flows}
        for flow_id, (table_index, path) in list(self._pending.items()):
            if network.path_is_usable(path):
                flow = by_id.get(flow_id)
                if flow is not None:
                    flow.path = path
                    self._assignment[flow_id] = table_index
                del self._pending[flow_id]

    def _probe_and_shift(
        self, network: SimulatedNetwork, flows: List[Flow], now_s: float
    ) -> None:
        threshold = self.config.utilisation_threshold
        release = self.config.release_threshold

        # Work against a planned view of the arc loads so that several flows
        # shifted within the same probe epoch see each other's moves — this is
        # the stability ingredient (TeXCP-style) that prevents all flows of a
        # hot link from stampeding to the same on-demand path and back.
        planned = network.arc_load_vector().copy()
        capacities = network.arc_table.arc_capacity

        def planned_utilisation(path: Path, extra_demand: float = 0.0) -> float:
            indices = network.compile_path(path).arc_indices
            if indices.size == 0:
                return 0.0
            return float(
                ((planned[indices] + extra_demand) / capacities[indices]).max()
            )

        def move_load(path: Optional[Path], delta: float) -> None:
            if path is None:
                return
            indices = network.compile_path(path).arc_indices
            planned[indices] = np.maximum(0.0, planned[indices] + delta)

        for flow in flows:
            current_index = self._assignment.get(flow.flow_id, 0)
            always_on_path = self._installed_path(flow, 0)
            if always_on_path is None:
                continue
            demand = flow.offered_load(now_s)
            current_path = flow.path or always_on_path
            utilisation = planned_utilisation(current_path)
            starved = demand > 0 and flow.rate_bps < demand * 0.999

            if current_index == 0:
                if utilisation > threshold or (starved and utilisation >= threshold * 0.999):
                    moved_to = self._activate_on_demand(network, flow, now_s, planned_utilisation)
                    if moved_to is not None:
                        move_load(current_path, -min(demand, flow.rate_bps or demand))
                        move_load(moved_to, +demand)
            else:
                if network.path_has_failure(always_on_path):
                    continue
                # Consider releasing the on-demand path: would the always-on
                # path absorb this flow without violating the SLO?
                fits_back = (
                    planned_utilisation(always_on_path, extra_demand=demand)
                    <= release + 1e-9
                )
                if fits_back and network.path_is_usable(always_on_path):
                    move_load(flow.path, -flow.rate_bps)
                    move_load(always_on_path, +demand)
                    flow.path = always_on_path
                    self._assignment[flow.flow_id] = 0
                    self._pending.pop(flow.flow_id, None)
                elif starved and flow.flow_id not in self._pending:
                    # The current on-demand path cannot serve the demand;
                    # move to the least-loaded usable installed path instead.
                    best = self._least_loaded_path(
                        network, flow, planned_utilisation, demand, first_table=0
                    )
                    if best is not None:
                        best_index, best_path = best
                        if best_path is not flow.path:
                            move_load(flow.path, -flow.rate_bps)
                            move_load(best_path, +demand)
                            if network.path_is_usable(best_path):
                                flow.path = best_path
                                self._assignment[flow.flow_id] = best_index
                            else:
                                network.request_wake(best_path.link_keys(), now_s)
                                self._pending[flow.flow_id] = (best_index, best_path)

    def _activate_on_demand(
        self,
        network: SimulatedNetwork,
        flow: Flow,
        now_s: float,
        planned_utilisation,
    ) -> Optional[Path]:
        """Pick the least-loaded usable on-demand path; wake it if asleep.

        Returns the path the flow was assigned or scheduled to move to, or
        ``None`` when no on-demand alternative exists.
        """
        best = self._least_loaded_path(
            network, flow, planned_utilisation, flow.offered_load(now_s), first_table=1
        )
        if best is None:
            return None
        table_index, path = best
        if network.path_is_usable(path):
            flow.path = path
            self._assignment[flow.flow_id] = table_index
            return path
        network.request_wake(path.link_keys(), now_s)
        self._pending[flow.flow_id] = (table_index, path)
        return path

    def _least_loaded_path(
        self,
        network: SimulatedNetwork,
        flow: Flow,
        planned_utilisation,
        demand: float,
        first_table: int,
    ) -> Optional[Tuple[int, Path]]:
        """The installed path (from table *first_table* on, failover excluded)
        with the lowest planned utilisation after adding the flow."""
        candidates = [
            (planned_utilisation(path, demand), table_index, path)
            for table_index in range(first_table, self._num_load_tables)
            if (path := self._installed_path(flow, table_index)) is not None
            and not network.path_has_failure(path)
        ]
        if not candidates:
            return None
        # Of equally loaded paths, the one in the lowest table wins.
        _utilisation, table_index, path = min(candidates, key=lambda entry: entry[0])
        return table_index, path

    def _apply_sleep_policy(self, network: SimulatedNetwork, flows: List[Flow]) -> None:
        """Let every link not needed by current paths or the always-on set sleep."""
        keep: Set[Tuple[str, str]] = set()
        _nodes, always_on_links = self.plan.always_on_elements()
        keep.update(always_on_links)
        for flow in flows:
            if flow.path is not None:
                keep.update(flow.path.link_keys())
        for _flow_id, (_index, path) in self._pending.items():
            keep.update(path.link_keys())
        network.sleep_idle_links(keep)

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by tests and experiments)
    # ------------------------------------------------------------------ #
    @property
    def probe_interval_s(self) -> float:
        """The probe period in effect after initialisation."""
        return self._probe_interval
