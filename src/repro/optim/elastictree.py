"""ElasticTree-style greedy subset computation for fat-tree networks.

ElasticTree (Heller et al. [25]) exploits the regular structure of fat-trees:
instead of solving a general optimisation problem it decides, per pod, how
many aggregation switches are needed for the pod's traffic and, globally, how
many core switches are needed for the inter-pod traffic, always preferring
the "leftmost" switches so that the active subset forms a spanning sub-tree.
The paper uses ElasticTree as the datacenter state of the art that REsPoNse
matches (Figure 4) and as one source of on-demand paths for fat-trees.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from ..exceptions import TopologyError
from ..power.model import PowerModel
from ..routing.paths import RoutingTable, link_loads
from ..topology.base import Topology
from ..topology.fattree import pod_of
from ..traffic.matrix import TrafficMatrix
from .solution import EnergyAwareSolution


def _fattree_arity(topology: Topology) -> int:
    """Recover the arity k of a fat-tree built by :func:`build_fattree`."""
    num_core = len(topology.nodes_at_level("core"))
    k = int(round(2 * math.sqrt(num_core)))
    if k <= 0 or (k // 2) ** 2 != num_core:
        raise TopologyError("topology does not look like a k-ary fat-tree")
    return k


def _pod_traffic(
    topology: Topology, demands: TrafficMatrix
) -> Tuple[Dict[int, float], Dict[int, float], float]:
    """Per-pod upward traffic, per-pod downward traffic, total inter-pod traffic."""
    up: Dict[int, float] = {}
    down: Dict[int, float] = {}
    inter_pod = 0.0
    for (origin, destination), demand in demands.items():
        if demand <= 0.0:
            continue
        origin_pod = pod_of(origin)
        destination_pod = pod_of(destination)
        if origin_pod == destination_pod:
            # Intra-pod traffic only crosses the pod's aggregation layer.
            up[origin_pod] = up.get(origin_pod, 0.0) + demand
            continue
        up[origin_pod] = up.get(origin_pod, 0.0) + demand
        down[destination_pod] = down.get(destination_pod, 0.0) + demand
        inter_pod += demand
    return up, down, inter_pod


def elastictree_subset(
    topology: Topology,
    power_model: PowerModel,
    demands: TrafficMatrix,
    utilisation_limit: float = 1.0,
) -> EnergyAwareSolution:
    """Compute the ElasticTree-style minimal fat-tree subset and route on it.

    Args:
        topology: A fat-tree built with :func:`repro.topology.build_fattree`
            (hosts optional; demands may be host-to-host or edge-to-edge).
        power_model: Power model used to cost the resulting subset.
        demands: Traffic matrix.
        utilisation_limit: Safety margin on the per-link capacity when sizing
            the number of switches.

    Returns:
        An :class:`EnergyAwareSolution` whose active set keeps, per pod, the
        leftmost aggregation switches needed for the pod's traffic plus the
        leftmost core switches needed for inter-pod traffic.
    """
    k = _fattree_arity(topology)
    half = k // 2
    link_capacity = min(link.capacity_bps for link in topology.links())
    usable = link_capacity * utilisation_limit

    up, down, inter_pod = _pod_traffic(topology, demands)

    # Hosts and edge switches always stay on (they terminate the traffic).
    active_nodes: Set[str] = set(topology.nodes_at_level("host"))
    active_nodes |= set(topology.nodes_at_level("edge"))

    # Aggregation switches per pod: enough uplink capacity for the pod's
    # traffic, at least one for connectivity, never more than k/2.
    pods = sorted({pod_of(name) for name in topology.nodes_at_level("edge")})
    agg_needed: Dict[int, int] = {}
    for pod in pods:
        pod_demand = max(up.get(pod, 0.0), down.get(pod, 0.0))
        # Each aggregation switch offers `half` uplinks of `usable` capacity.
        needed = max(1, math.ceil(pod_demand / max(usable * half, 1e-12)))
        agg_needed[pod] = min(half, needed)
        for position in range(agg_needed[pod]):
            active_nodes.add(f"agg{pod}_{position}")

    # Core switches: enough capacity for all inter-pod traffic, at least one
    # per active "stripe" so that every active aggregation switch keeps an
    # uplink, never more than (k/2)^2.
    max_agg_position = max(agg_needed.values())
    cores_per_stripe = max(1, math.ceil(inter_pod / max(usable * k, 1e-12)))
    cores_per_stripe = min(half, cores_per_stripe)
    for stripe in range(max_agg_position):
        for offset in range(cores_per_stripe):
            active_nodes.add(f"core{stripe * half + offset}")

    # Active links: every link whose both endpoints are active.
    active_links: Set[Tuple[str, str]] = {
        link.key
        for link in topology.links()
        if link.u in active_nodes and link.v in active_nodes
    }

    routing: Optional[RoutingTable] = None
    if len(demands) > 0:
        routing, active_nodes, active_links = _route_and_repair(
            topology, demands, active_nodes, active_links, usable
        )

    return EnergyAwareSolution.of(
        topology, power_model, active_nodes, active_links, routing, "elastictree-greedy"
    )


def _route_and_repair(
    topology: Topology,
    demands: TrafficMatrix,
    active_nodes: Set[str],
    active_links: Set[Tuple[str, str]],
    usable_capacity: float,
) -> Tuple[RoutingTable, Set[str], Set[Tuple[str, str]]]:
    """Route on the active subset, adding switches if a link would overload.

    Routing uses the capacity-aware greedy packer rather than plain shortest
    paths: a fat-tree pod with two active aggregation switches must spread its
    edge uplink traffic across both of them, which single-metric shortest
    paths cannot do.
    """
    from ..power.commodity import CommoditySwitchPowerModel
    from .greente import greente_heuristic

    packing_model = CommoditySwitchPowerModel()
    all_switch_names = sorted(
        set(topology.nodes_at_level("aggregation")) | set(topology.nodes_at_level("core"))
    )
    for _ in range(len(all_switch_names) + 1):
        subgraph = topology.subgraph(active_nodes, active_links)
        routing = greente_heuristic(
            subgraph,
            packing_model,
            demands,
            k=4,
            allow_overload=True,
        ).routing
        if not (link_loads(subgraph, routing, demands) > usable_capacity + 1e-9).any():
            return routing, active_nodes, active_links
        # Activate the next inactive switch (leftmost aggregation first, then
        # core) and retry.
        inactive = [name for name in all_switch_names if name not in active_nodes]
        if not inactive:
            return routing, active_nodes, active_links
        chosen = inactive[0]
        active_nodes = set(active_nodes) | {chosen}
        active_links = {
            link.key
            for link in topology.links()
            if link.u in active_nodes and link.v in active_nodes
        }
    return routing, active_nodes, active_links
