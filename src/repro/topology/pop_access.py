"""Synthetic hierarchical Italian-ISP "PoP-access" topology.

The paper's third ISP topology comes from Chiaraviglio et al. [15]: an Italian
ISP with a hierarchical design (core, backbone, metro, feeder, access) and "a
significant amount of redundancy at each level".  The paper only uses the top
three levels — core, backbone and metro — because feeder nodes must always be
powered.

This module rebuilds that structure synthetically:

* a small full-mesh core,
* backbone PoPs dual-homed to two distinct core nodes and chained sideways
  for extra redundancy,
* metro PoPs dual-homed to two distinct backbone nodes.

Capacities decrease down the hierarchy (10 Gb/s core, 2.5 Gb/s backbone
uplinks, 1 Gb/s metro uplinks) as in typical national ISP designs.
"""

from __future__ import annotations

from typing import List

from ..exceptions import TopologyError
from ..units import gbps
from .base import Topology

#: Default level sizes mirroring the published topology's top three levels.
DEFAULT_NUM_CORE = 4
DEFAULT_NUM_BACKBONE = 10
DEFAULT_NUM_METRO = 20

CORE_CAPACITY_BPS = gbps(10)
BACKBONE_CAPACITY_BPS = gbps(2.5)
METRO_CAPACITY_BPS = gbps(1)

_CORE_LATENCY_S = 0.002
_BACKBONE_LATENCY_S = 0.003
_METRO_LATENCY_S = 0.002


def core_name(index: int) -> str:
    """Name of the *index*-th core router."""
    return f"core{index}"


def backbone_name(index: int) -> str:
    """Name of the *index*-th backbone router."""
    return f"bb{index}"


def metro_name(index: int) -> str:
    """Name of the *index*-th metro router."""
    return f"metro{index}"


def build_pop_access(
    num_core: int = DEFAULT_NUM_CORE,
    num_backbone: int = DEFAULT_NUM_BACKBONE,
    num_metro: int = DEFAULT_NUM_METRO,
) -> Topology:
    """Build the hierarchical PoP-access topology.

    Args:
        num_core: Number of core routers (full mesh), at least 2.
        num_backbone: Number of backbone routers, each dual-homed to core.
        num_metro: Number of metro routers, each dual-homed to backbone.

    Returns:
        A three-level :class:`~repro.topology.base.Topology`.  Node levels are
        ``"core"``, ``"backbone"`` and ``"metro"``.

    Raises:
        TopologyError: If any level is too small for dual-homing.
    """
    if num_core < 2:
        raise TopologyError("need at least 2 core routers for redundancy")
    if num_backbone < 2:
        raise TopologyError("need at least 2 backbone routers for redundancy")
    if num_metro < 1:
        raise TopologyError("need at least 1 metro router")

    topo = Topology(name="pop-access")

    cores: List[str] = []
    for index in range(num_core):
        name = core_name(index)
        topo.add_node(name, kind="router", level="core")
        cores.append(name)

    backbones: List[str] = []
    for index in range(num_backbone):
        name = backbone_name(index)
        topo.add_node(name, kind="router", level="backbone")
        backbones.append(name)

    metros: List[str] = []
    for index in range(num_metro):
        name = metro_name(index)
        topo.add_node(name, kind="router", level="metro")
        metros.append(name)

    # Core full mesh.
    for i in range(num_core):
        for j in range(i + 1, num_core):
            topo.add_link(
                cores[i], cores[j], capacity_bps=CORE_CAPACITY_BPS, latency_s=_CORE_LATENCY_S
            )

    # Backbone routers: dual-homed to two distinct core routers, plus a ring
    # between consecutive backbone routers for lateral redundancy.
    for index, backbone in enumerate(backbones):
        primary = cores[index % num_core]
        secondary = cores[(index + 1) % num_core]
        topo.add_link(
            backbone, primary, capacity_bps=BACKBONE_CAPACITY_BPS, latency_s=_BACKBONE_LATENCY_S
        )
        topo.add_link(
            backbone, secondary, capacity_bps=BACKBONE_CAPACITY_BPS, latency_s=_BACKBONE_LATENCY_S
        )
    if num_backbone > 2:
        for index in range(num_backbone):
            u = backbones[index]
            v = backbones[(index + 1) % num_backbone]
            if not topo.has_link(u, v):
                topo.add_link(
                    u, v, capacity_bps=BACKBONE_CAPACITY_BPS, latency_s=_BACKBONE_LATENCY_S
                )

    # Metro routers: dual-homed to two distinct backbone routers.
    for index, metro in enumerate(metros):
        primary = backbones[index % num_backbone]
        secondary = backbones[(index + 1) % num_backbone]
        topo.add_link(
            metro, primary, capacity_bps=METRO_CAPACITY_BPS, latency_s=_METRO_LATENCY_S
        )
        topo.add_link(
            metro, secondary, capacity_bps=METRO_CAPACITY_BPS, latency_s=_METRO_LATENCY_S
        )

    return topo
