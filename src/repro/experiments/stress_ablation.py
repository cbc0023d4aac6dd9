"""Section 4.2 (text) ablation: the stress-factor exclusion fraction.

Paper claim: "Our sensitivity analysis shows that excluding 20 % of the links
with the highest stress is sufficient to produce a set of paths that together
with the always-on paths can accommodate peak-hour traffic demands."

This ablation sweeps the exclusion fraction and, for every value, measures
the largest gravity-shaped volume the combination of always-on and on-demand
paths can absorb (using the activation planner), relative to what the network
can carry at all.

The ablation rides the scenario ``events`` axis: passing ``events`` (e.g. a
``link-failure``) measures how much peak-hour load the precomputed paths
still absorb on the degraded topology — the sensitivity question the paper's
"react to failures in seconds" claim rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Union

from ..core.always_on import compute_always_on
from ..core.on_demand import compute_on_demand
from ..core.plan import ResponsePlan
from ..core.planner import activate_paths
from ..core.response import ResponseConfig
from ..exceptions import ConfigurationError
from ..power.model import PowerModel
from ..scenario import (
    EventSpec,
    PowerSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
)
from ..simulator.failures import FailureState, TopologyChange, TopologyView
from ..topology.base import Topology
from ..traffic.matrix import TrafficMatrix


@dataclass
class StressAblationResult:
    """Absorbable load versus stress-exclusion fraction.

    Attributes:
        fractions: The evaluated exclusion fractions.
        absorbable_load_fraction: For each fraction, the largest multiple of
            the calibrated maximum load that the always-on plus on-demand
            paths absorb without exceeding the utilisation threshold.
        events: The injected events (JSON-ready records) the absorbable
            load was measured under (empty = intact network).
    """

    fractions: List[float]
    absorbable_load_fraction: List[float]
    events: List[dict] = field(default_factory=list)

    def rows(self) -> List[tuple]:
        """Report rows: (exclusion fraction, absorbable multiple of the peak)."""
        return list(zip(self.fractions, self.absorbable_load_fraction, strict=True))

    def absorbs_peak(self, fraction: float) -> bool:
        """Whether the plan built with this exclusion fraction absorbs the peak."""
        index = self.fractions.index(fraction)
        return self.absorbable_load_fraction[index] >= 1.0 - 1e-9

    def best_fraction(self) -> float:
        """The exclusion fraction absorbing the most load (ties → smallest)."""
        best_index = max(
            range(len(self.fractions)),
            key=lambda index: (self.absorbable_load_fraction[index], -self.fractions[index]),
        )
        return self.fractions[best_index]


def run_stress_ablation(
    fractions: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4),
    num_pairs: int = 110,
    num_endpoints: int = 16,
    trace_days: int = 1,
    utilisation_threshold: float = 0.95,
    seed: int = 42,
    events: Sequence[Union[EventSpec, Mapping[str, Any], str]] = (),
) -> StressAblationResult:
    """Sweep the stress-factor exclusion fraction on a GÉANT-like network.

    The "peak" against which every plan is measured is the element-wise peak
    of the synthetic GÉANT trace (the paper's peak-hour demands), not the
    theoretical maximum the full network could carry.

    Args:
        events: Optional scenario events (``EventSpec`` entries or their
            dict/name forms).  Topology events are applied before measuring —
            the plans are still computed offline on the intact network, so
            the result answers "how much peak load do the precomputed paths
            absorb after this failure?".
    """
    spec = ScenarioSpec(
        name="stress-ablation",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec(
            "geant-trace",
            num_days=trace_days,
            num_pairs=num_pairs,
            num_endpoints=num_endpoints,
            seed=seed,
        ),
        power=PowerSpec("cisco"),
        utilisation_threshold=utilisation_threshold,
        events=tuple(EventSpec.from_dict(event) for event in events),
    )
    built = build_scenario(spec)
    topo, model, pairs = built.topology, built.power_model, built.pairs
    peak = built.trace.peak_matrix()
    failed = FailureState(topo)
    for event in built.events:
        if not isinstance(event, TopologyChange):
            # The ablation has no time axis to honour a surge window on;
            # rejecting beats silently reporting intact-network numbers.
            raise ConfigurationError(
                f"stress ablation only supports topology events, got "
                f"{event.kind!r}; scale the measured load via `fractions` instead"
            )
        failed.apply(event)
    view = failed.view()

    always_on = compute_always_on(topo, model, ResponseConfig(k=3), pairs=pairs)

    absorbed: List[float] = []
    for fraction in fractions:
        on_demand = compute_on_demand(
            topo,
            model,
            always_on,
            ResponseConfig(on_demand_method="stress", stress_exclude_fraction=fraction, k=3),
            pairs=pairs,
        )
        plan = ResponsePlan(
            always_on=always_on,
            on_demand=on_demand,
            failover=None,
            topology_name=topo.name,
            variant=f"stress-{fraction:.2f}",
        )
        absorbed.append(
            _max_absorbable_fraction(
                topo, model, plan, peak, utilisation_threshold, view=view
            )
        )
    return StressAblationResult(
        fractions=list(fractions),
        absorbable_load_fraction=absorbed,
        events=[event.record() for event in built.events],
    )


def _max_absorbable_fraction(
    topology: Topology,
    power_model: PowerModel,
    plan: ResponsePlan,
    peak: TrafficMatrix,
    utilisation_threshold: float,
    step: float = 0.1,
    limit: float = 3.0,
    view: Optional[TopologyView] = None,
) -> float:
    """Largest multiple of the peak matrix placed without overload.

    With a failure-carrying *view*, installed paths crossing failed elements
    are unusable during activation (the plans themselves stay as computed
    offline on the intact network).
    """
    feasible = 0.0
    fraction = step
    while fraction <= limit + 1e-9:
        activation = activate_paths(
            topology,
            power_model,
            plan,
            peak.scaled(fraction),
            utilisation_threshold=utilisation_threshold,
            view=view,
        )
        if activation.overloaded_pairs:
            break
        feasible = fraction
        fraction += step
    return feasible
