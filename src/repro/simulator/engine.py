"""Fixed-step simulation engine.

The engine replaces the paper's ns-2 simulations, Click testbed and ModelNet
emulator with a discrete-time fluid model: at every step it applies scheduled
failures, completes pending wake-ups, lets the traffic-engineering controller
re-assign flows to installed paths, computes max-min fair flow rates, and
samples the metrics the evaluation figures plot (per-flow rates, aggregate
demand and sending rate, network power).

The per-step heavy lifting (max-min fair sharing, arc-load bookkeeping) is
vectorized: the network compiles every installed path to arc-index arrays
once and runs the allocation as NumPy reductions — see
:mod:`repro.topology.index` and :mod:`repro.simulator.fairness`.  Sampling
likewise reads link states and monitored arc loads through the integer
arc table rather than per-element dictionary walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..topology.base import link_key
from .failures import FailureSchedule, NodeEvent
from .flows import Flow
from .links import NUM_LINK_STATES, LinkState
from .network import SimulatedNetwork


class Controller(Protocol):
    """Interface of traffic-engineering controllers driven by the engine."""

    def initialise(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        """Called once before the first step."""

    def control(self, network: SimulatedNetwork, flows: List[Flow], now_s: float) -> None:
        """Called every step; may re-assign flow paths and wake/sleep links."""


@dataclass
class Sample:
    """One recorded simulation sample."""

    time_s: float
    total_demand_bps: float
    total_rate_bps: float
    power_percent: float
    flow_rates: Dict[str, float]
    sleeping_links: int
    waking_links: int
    failed_links: int
    monitored_arc_loads: Dict[Tuple[str, str], float] = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Time series recorded by a simulation run."""

    samples: List[Sample] = field(default_factory=list)

    def times(self) -> List[float]:
        """Sample timestamps."""
        return [sample.time_s for sample in self.samples]

    def series(self, attribute: str) -> List[float]:
        """The time series of a scalar sample attribute."""
        return [getattr(sample, attribute) for sample in self.samples]

    def arc_load_series(self, src: str, dst: str) -> List[float]:
        """Load time series of a monitored directed arc."""
        return [
            sample.monitored_arc_loads.get((src, dst), 0.0) for sample in self.samples
        ]

    def power_series(self) -> List[float]:
        """Network power (percent of original) over time."""
        return self.series("power_percent")


class SimulationEngine:
    """Drives a :class:`SimulatedNetwork`, a set of flows and a controller."""

    def __init__(
        self,
        network: SimulatedNetwork,
        flows: List[Flow],
        controller: Controller,
        time_step_s: float = 0.01,
        sample_interval_s: Optional[float] = None,
        failures: Optional[FailureSchedule] = None,
        monitored_arcs: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        if time_step_s <= 0:
            raise SimulationError(f"time step must be positive, got {time_step_s}")
        self.network = network
        self.flows = flows
        self.controller = controller
        self.time_step_s = float(time_step_s)
        self.sample_interval_s = (
            float(sample_interval_s) if sample_interval_s is not None else self.time_step_s
        )
        self.failures = failures or FailureSchedule()
        self.monitored_arcs = list(monitored_arcs or [])
        flow_ids = [flow.flow_id for flow in flows]
        if len(set(flow_ids)) != len(flow_ids):
            raise SimulationError("flow identifiers must be unique")
        # Current failure causes, maintained while applying scheduled events:
        # a link stays failed as long as any cause (its own failure or a
        # failed endpoint) is still in effect.
        self._failed_links: set = set()
        self._failed_nodes: set = set()

    def _link_still_failed(self, u: str, v: str) -> bool:
        """Whether some still-active failure keeps link ``(u, v)`` down."""
        return (
            link_key(u, v) in self._failed_links
            or u in self._failed_nodes
            or v in self._failed_nodes
        )

    def run(self, duration_s: float, start_s: float = 0.0) -> SimulationResult:
        """Run the simulation for *duration_s* seconds of simulated time."""
        if duration_s <= 0:
            raise SimulationError(f"duration must be positive, got {duration_s}")
        result = SimulationResult()
        now = float(start_s)
        end = start_s + duration_s
        previous = now - self.time_step_s
        last_sample_at = -float("inf")
        self._failed_links.clear()
        self._failed_nodes.clear()

        self.controller.initialise(self.network, self.flows, now)

        while now <= end + 1e-12:
            # 1. Scheduled failures and repairs.  Link- and node-scoped
            # failures overlap (a node takes its incident links down), so
            # the engine tracks both causes and only repairs a link once no
            # cause keeps it failed.
            for event in self.failures.due(previous, now):
                if isinstance(event, NodeEvent):
                    if event.kind == "fail":
                        self._failed_nodes.add(event.node)
                    else:
                        self._failed_nodes.discard(event.node)
                    affected = [
                        link.endpoints
                        for link in self.network.topology.incident_links(event.node)
                    ]
                else:
                    key = link_key(*event.link)
                    if event.kind == "fail":
                        self._failed_links.add(key)
                    else:
                        self._failed_links.discard(key)
                    affected = [event.link]
                for u, v in affected:
                    if event.kind == "fail":
                        self.network.fail_link(u, v)
                    elif self._link_still_failed(u, v):
                        continue  # another failure still holds the link down
                    else:
                        self.network.repair_link(u, v)

            # 2. Complete pending wake-ups.
            self.network.advance(now)

            # 3. Traffic engineering decisions.
            self.controller.control(self.network, self.flows, now)

            # 4. Rate allocation.
            self.network.allocate_rates(self.flows, now_s=now)

            # 5. Sampling.
            if now - last_sample_at + 1e-12 >= self.sample_interval_s:
                result.samples.append(self._sample(now))
                last_sample_at = now

            previous = now
            now += self.time_step_s
        return result

    def _sample(self, now_s: float) -> Sample:
        total_demand = sum(flow.offered_load(now_s) for flow in self.flows)
        total_rate = sum(flow.rate_bps for flow in self.flows)
        state_counts = np.bincount(
            self.network.link_state_codes(), minlength=NUM_LINK_STATES
        )
        return Sample(
            time_s=now_s,
            total_demand_bps=total_demand,
            total_rate_bps=total_rate,
            power_percent=self.network.power_percent(),
            flow_rates={flow.flow_id: flow.rate_bps for flow in self.flows},
            sleeping_links=int(state_counts[LinkState.SLEEPING.code]),
            waking_links=int(state_counts[LinkState.WAKING.code]),
            failed_links=int(state_counts[LinkState.FAILED.code]),
            monitored_arc_loads={
                (src, dst): self.network.arc_load(src, dst)
                for src, dst in self.monitored_arcs
            },
        )
