"""k-ary fat-tree datacenter topology (Al-Fares et al., SIGCOMM 2008).

The paper evaluates REsPoNse on fat-tree datacenter networks: a ``k=4``
fat-tree for the power/time experiment (Figure 4) and a fat-tree with 36 core
switches (``k=12``) for the energy-critical-path analysis (Figure 2b).

A ``k``-ary fat-tree has:

* ``(k/2)^2`` core switches,
* ``k`` pods, each with ``k/2`` aggregation and ``k/2`` edge switches,
* ``k/2`` hosts attached to every edge switch (``k^3/4`` hosts in total).

Every switch has ``k`` ports of equal speed, so the topology is rearrangeably
non-blocking.  Host links are modelled explicitly (kind ``"host"``) because
the datacenter experiments express demands between hosts, but hosts are
``always_powered`` and never considered for sleeping.
"""

from __future__ import annotations

from typing import List

from ..exceptions import TopologyError
from ..units import gbps
from .base import Topology

#: Default port speed for fat-tree links (commodity 1 GbE, as in ElasticTree).
DEFAULT_LINK_CAPACITY_BPS = gbps(1.0)

#: Default propagation latency inside a datacenter (tens of microseconds).
DEFAULT_DC_LATENCY_S = 50e-6


def core_switch_name(index: int) -> str:
    """Name of the *index*-th core switch."""
    return f"core{index}"


def aggregation_switch_name(pod: int, index: int) -> str:
    """Name of the *index*-th aggregation switch in *pod*."""
    return f"agg{pod}_{index}"


def edge_switch_name(pod: int, index: int) -> str:
    """Name of the *index*-th edge switch in *pod*."""
    return f"edge{pod}_{index}"


def host_name(pod: int, edge: int, index: int) -> str:
    """Name of the *index*-th host below edge switch *edge* in *pod*."""
    return f"host{pod}_{edge}_{index}"


def build_fattree(
    k: int = 4,
    link_capacity_bps: float = DEFAULT_LINK_CAPACITY_BPS,
    latency_s: float = DEFAULT_DC_LATENCY_S,
    with_hosts: bool = True,
) -> Topology:
    """Build a ``k``-ary fat-tree.

    Args:
        k: Arity of the fat-tree; must be a positive even integer.
        link_capacity_bps: Capacity of every link (all ports are equal speed).
        latency_s: Propagation latency of every link.
        with_hosts: When ``True`` (default), attach ``k/2`` hosts to every
            edge switch.  Host-less trees are useful when demands are
            expressed between edge switches directly.

    Returns:
        The constructed :class:`~repro.topology.base.Topology`.  Switch nodes
        carry ``level`` in ``{"core", "aggregation", "edge"}``; hosts carry
        ``level="host"`` and ``always_powered=True``.

    Raises:
        TopologyError: If ``k`` is not a positive even integer.
    """
    if k <= 0 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity must be a positive even integer, got {k}")

    half = k // 2
    topo = Topology(name=f"fattree-k{k}")

    core_switches: List[str] = []
    for index in range(half * half):
        name = core_switch_name(index)
        topo.add_node(name, kind="switch", level="core")
        core_switches.append(name)

    for pod in range(k):
        aggregation = [aggregation_switch_name(pod, i) for i in range(half)]
        edges = [edge_switch_name(pod, i) for i in range(half)]
        for name in aggregation:
            topo.add_node(name, kind="switch", level="aggregation")
        for name in edges:
            topo.add_node(name, kind="switch", level="edge")

        # Edge <-> aggregation: complete bipartite graph inside the pod.
        for edge in edges:
            for agg in aggregation:
                topo.add_link(edge, agg, capacity_bps=link_capacity_bps, latency_s=latency_s)

        # Aggregation <-> core: aggregation switch i in every pod connects to
        # core switches [i*half, (i+1)*half).
        for agg_index, agg in enumerate(aggregation):
            for offset in range(half):
                core = core_switches[agg_index * half + offset]
                topo.add_link(agg, core, capacity_bps=link_capacity_bps, latency_s=latency_s)

        if with_hosts:
            for edge_index, edge in enumerate(edges):
                for host_index in range(half):
                    host = host_name(pod, edge_index, host_index)
                    topo.add_node(host, kind="host", level="host", always_powered=True)
                    topo.add_link(
                        host, edge, capacity_bps=link_capacity_bps, latency_s=latency_s
                    )

    return topo


def pod_of(node: str) -> int:
    """Return the pod index encoded in a fat-tree switch or host name.

    Raises:
        TopologyError: If the node name does not belong to a pod (e.g. a core
            switch).
    """
    for prefix in ("agg", "edge", "host"):
        if node.startswith(prefix):
            remainder = node[len(prefix):]
            pod_part = remainder.split("_", 1)[0]
            return int(pod_part)
    raise TopologyError(f"node {node!r} does not belong to a pod")


def core_switches(topo: Topology) -> List[str]:
    """All core-level switches of a fat-tree topology."""
    return topo.nodes_at_level("core")


def hosts(topo: Topology) -> List[str]:
    """All hosts of a fat-tree topology."""
    return topo.nodes_at_level("host")
