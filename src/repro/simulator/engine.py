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
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .failures import FailureState, TopologyChange, due
from .flows import Flow
from .network import LinkState, SimulatedNetwork


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
        failures: Sequence[TopologyChange] = (),
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
        self.failures = list(failures)
        for change in self.failures:
            change.check(network.topology)
        self.monitored_arcs = list(monitored_arcs or [])
        flow_ids = [flow.flow_id for flow in flows]
        if len(set(flow_ids)) != len(flow_ids):
            raise SimulationError("flow identifiers must be unique")

    def run(self, duration_s: float, start_s: float = 0.0) -> SimulationResult:
        """Run the simulation for *duration_s* seconds of simulated time."""
        if duration_s <= 0:
            raise SimulationError(f"duration must be positive, got {duration_s}")
        result = SimulationResult()
        now = float(start_s)
        end = start_s + duration_s
        previous = now - self.time_step_s
        last_sample_at = -float("inf")
        failed = FailureState(self.network.topology)

        self.controller.initialise(self.network, self.flows, now)

        while now <= end + 1e-12:
            # 1. Scheduled failures and repairs.  A link is out of service
            # while any failure covering it (its own or an endpoint's) holds,
            # so it fails when it enters the unusable set and is repaired
            # only when it leaves it.
            for change in due(self.failures, previous, now):
                before = failed.view().unusable_links()
                failed.apply(change)
                after = failed.view().unusable_links()
                for u, v in sorted(after - before):
                    self.network.fail_link(u, v)
                for u, v in sorted(before - after):
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
        state_counts = np.bincount(self.network.link_state_codes(), minlength=len(LinkState))
        return Sample(
            time_s=now_s,
            total_demand_bps=total_demand,
            total_rate_bps=total_rate,
            power_percent=self.network.power_percent(),
            flow_rates={flow.flow_id: flow.rate_bps for flow in self.flows},
            sleeping_links=int(state_counts[LinkState.SLEEPING]),
            waking_links=int(state_counts[LinkState.WAKING]),
            failed_links=int(state_counts[LinkState.FAILED]),
            monitored_arc_loads={
                (src, dst): self.network.arc_load(src, dst)
                for src, dst in self.monitored_arcs
            },
        )
