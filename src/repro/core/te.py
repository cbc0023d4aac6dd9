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

The decision itself is :mod:`repro.core.placement`'s, shared with the
offline :func:`~repro.core.planner.activate_paths`: the controller works
against a planned per-arc load vector (a copy of the network's
:meth:`~repro.simulator.network.SimulatedNetwork.arc_load_vector`), and
wakes on-demand paths with :func:`~repro.core.placement.choose`; what is
left here is what only an online agent has — the probe clock, the release
hysteresis, the detection delay and the wake/pending bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..simulator.flows import Flow
from ..simulator.network import LinkState, SimulatedNetwork
from .placement import Installed, InstalledPaths, add_load, choose, release_load, usable
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

    A flow's current and pending paths are entries of one
    :class:`~repro.core.placement.InstalledPaths`, built at
    :meth:`initialise`; which links are failed or awake is one read of the
    network's link-state codes per :meth:`control` call, and every path
    check is a gather over it.
    """

    def __init__(self, plan: ResponsePlan, config: Optional[TEConfig] = None) -> None:
        self.plan = plan
        self.config = config or TEConfig()
        # Load spills onto the on-demand tables only; the failover table is
        # for failures.
        self._num_load_tables = len(plan.tables(include_failover=False))
        self._assignment: Dict[str, Installed] = {}
        self._pending: Dict[str, Installed] = {}
        self._failure_noticed_at: Dict[str, float] = {}
        self._next_probe_at = 0.0
        self._probe_interval = 0.0
        # Set by initialise(), the first call that sees the network; the
        # link masks are refreshed by every control() call.
        self._installed: InstalledPaths
        self._always_on_links: np.ndarray
        self._limit: np.ndarray
        self._link_ok: np.ndarray
        self._awake: np.ndarray

    # ------------------------------------------------------------------ #
    # Controller interface
    # ------------------------------------------------------------------ #
    def initialise(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        """Install the plan's paths, assign every flow and set the probe clock.

        Each flow's installed paths are compiled over the network topology's
        index here (plan-installation time), so the simulation loop never
        pays the path-to-indices translation again.
        """
        index = network.topology.index()
        self._installed = InstalledPaths(index, self.plan.tables(include_failover=True))
        _nodes, always_on_links = self.plan.always_on_elements()
        self._always_on_links = index.link_mask(always_on_links)
        self._limit = index.arc_capacity * self.config.utilisation_threshold + 1e-9
        self._probe_interval = (
            self.config.probe_interval_s
            if self.config.probe_interval_s is not None
            else max(network.max_rtt(), 1e-3)
        )
        start = max(now_s, self.config.start_time_s)
        self._next_probe_at = start + (
            self._probe_interval if self.config.start_time_s > now_s else 0.0
        )
        preferred = self.config.initial_table_index
        for flow in flows:
            entries = self._installed.of((flow.origin, flow.destination))
            # The preferred table, else the first table that knows the pair.
            first = entries[0] if entries else None
            entry = next((e for e in entries if e.table_index == preferred), first)
            if entry is None:
                flow.path = None
            else:
                self._move(flow, entry)
        if now_s + 1e-12 >= self.config.start_time_s:
            self._apply_sleep_policy(network, flows)

    def control(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        """Per-step control hook: failure handling every step, load shifts at probes."""
        if now_s + 1e-12 < self.config.start_time_s:
            return
        # One read serves the whole call: until the sleep policy runs, the
        # only transition the controller makes is SLEEPING -> WAKING
        # (request_wake), which changes neither mask.
        codes = network.link_state_codes()
        self._link_ok = codes != LinkState.FAILED
        self._awake = codes == LinkState.ACTIVE
        self._handle_failures(network, flows, now_s)
        self._apply_pending(flows)
        if now_s + 1e-12 >= self._next_probe_at:
            self._probe_and_shift(network, flows, now_s)
            self._next_probe_at = now_s + self._probe_interval
        self._apply_sleep_policy(network, flows)

    # ------------------------------------------------------------------ #
    # Internal machinery
    # ------------------------------------------------------------------ #
    def _move(self, flow: Flow, entry: Installed) -> None:
        flow.path = entry.path
        self._assignment[flow.flow_id] = entry

    def _shift(self, network: SimulatedNetwork, flow: Flow, entry: Installed, now_s: float) -> None:
        """Move the flow now if the entry's path is awake, else wake it and
        leave the move pending."""
        if self._awake[entry.links].all():
            self._move(flow, entry)
        else:
            network.request_wake(entry.links, now_s)
            self._pending[flow.flow_id] = entry

    def _load_candidates(self, entries: List[Installed], first_table: int) -> List[Installed]:
        """The entries of the load tables from *first_table* on (failover
        excluded) that cross no failed link."""
        tables = range(first_table, self._num_load_tables)
        return usable([e for e in entries if e.table_index in tables], self._link_ok)

    def _handle_failures(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        delay = self.config.failure_detection_delay_s
        for flow in flows:
            current = self._assignment.get(flow.flow_id)
            if current is None:
                continue
            if self._link_ok[current.links].all():
                self._failure_noticed_at.pop(flow.flow_id, None)
                continue
            noticed = self._failure_noticed_at.setdefault(flow.flow_id, now_s)
            if now_s - noticed + 1e-12 < delay:
                continue
            # The first installed path of another table that avoids failed
            # links, preferring one that is awake.
            entries = self._installed.of((flow.origin, flow.destination))
            others = [
                e for e in usable(entries, self._link_ok) if e.table_index != current.table_index
            ]
            if not others:
                continue
            alternative = next((e for e in others if self._awake[e.links].all()), others[0])
            network.request_wake(alternative.links, now_s)
            self._move(flow, alternative)
            self._pending.pop(flow.flow_id, None)
            self._failure_noticed_at.pop(flow.flow_id, None)

    def _apply_pending(self, flows: List[Flow]) -> None:
        """Complete deferred shifts whose target path finished waking up."""
        by_id = {flow.flow_id: flow for flow in flows}
        for flow_id, entry in list(self._pending.items()):
            if self._awake[entry.links].all():
                flow = by_id.get(flow_id)
                if flow is not None:
                    self._move(flow, entry)
                del self._pending[flow_id]

    def _probe_and_shift(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        threshold = self.config.utilisation_threshold
        release = self.config.release_threshold
        capacity = self._installed.index.arc_capacity
        # Work against a planned view of the arc loads so that several flows
        # shifted within the same probe epoch see each other's moves — this is
        # the stability ingredient (TeXCP-style) that prevents all flows of a
        # hot link from stampeding to the same on-demand path and back.
        planned = network.arc_load_vector().copy()

        for flow in flows:
            entries = self._installed.of((flow.origin, flow.destination))
            if not entries or entries[0].table_index != 0:
                continue
            always_on = entries[0]
            current = self._assignment.get(flow.flow_id, always_on)
            demand = flow.offered_load(now_s)
            starved = demand > 0 and flow.rate_bps < demand * 0.999

            if current.table_index == 0:
                load = _utilisation(planned, capacity, 0.0, current)
                if load > threshold or (starved and load >= threshold * 0.999):
                    # Paper: on-demand paths are activated in order.
                    candidates = self._load_candidates(entries, 1)
                    if candidates:
                        target, _overloaded = choose(
                            planned, self._limit, capacity, candidates, demand
                        )
                        self._shift(network, flow, target, now_s)
                        release_load(planned, current, min(demand, flow.rate_bps or demand))
                        add_load(planned, target, demand)
            elif self._link_ok[always_on.links].all():
                # Consider releasing the on-demand path: would the always-on
                # path absorb this flow without violating the SLO?
                fits_back = _utilisation(planned, capacity, demand, always_on) <= release + 1e-9
                if fits_back and self._awake[always_on.links].all():
                    release_load(planned, current, flow.rate_bps)
                    add_load(planned, always_on, demand)
                    self._move(flow, always_on)
                    self._pending.pop(flow.flow_id, None)
                elif starved and flow.flow_id not in self._pending:
                    # The current on-demand path cannot serve the demand;
                    # move to the least-loaded usable installed path instead
                    # (of equally loaded paths, the one in the lowest table).
                    candidates = self._load_candidates(entries, 0)
                    score = partial(_utilisation, planned, capacity, demand)
                    best = min(candidates, key=score, default=None)
                    if best is not None and best.path is not current.path:
                        release_load(planned, current, flow.rate_bps)
                        add_load(planned, best, demand)
                        self._shift(network, flow, best, now_s)

    def _apply_sleep_policy(self, network: SimulatedNetwork, flows: List[Flow]) -> None:
        """Let every link not needed by current paths or the always-on set sleep."""
        keep = self._always_on_links.copy()
        for flow in flows:
            current = self._assignment.get(flow.flow_id)
            if current is not None:
                keep[current.links] = True
        for entry in self._pending.values():
            keep[entry.links] = True
        network.sleep_idle_links(keep)

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by tests and experiments)
    # ------------------------------------------------------------------ #
    @property
    def probe_interval_s(self) -> float:
        """The probe period in effect after initialisation."""
        return self._probe_interval


def _utilisation(loads: np.ndarray, capacity: np.ndarray, demand: float, entry: Installed) -> float:
    """The largest utilisation of the entry's arcs once *demand* is added."""
    return float(((loads[entry.arcs] + demand) / capacity[entry.arcs]).max(initial=0.0))
