"""Network-wide power accounting.

Implements the paper's objective function

.. math::

    \\sum_{i \\in N} X_i \\Big[ P_c(i)
        + \\sum_{i \\to j \\in A_i} Y_{i \\to j}
          \\big(P_l(i \\to j) + P_a(i \\to j)\\big) \\Big]

for an arbitrary subset of powered-on nodes (``X_i = 1``) and active links
(``Y_{i \\to j} = 1``).  Host nodes contribute nothing, and arcs whose origin
is a host contribute no port power (the attached switch port does, from the
switch side of the link).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple

from ..exceptions import TopologyError
from ..topology.base import Topology, link_key
from .model import PowerModel


@dataclass(frozen=True)
class PowerBreakdown:
    """Network power decomposed into the paper's three components (watts)."""

    chassis_w: float
    ports_w: float
    amplifiers_w: float

    @property
    def total_w(self) -> float:
        """Total network power in watts."""
        return self.chassis_w + self.ports_w + self.amplifiers_w

    def as_dict(self) -> dict:
        """The breakdown as a plain dictionary (for reports and tests)."""
        return {
            "chassis_w": self.chassis_w,
            "ports_w": self.ports_w,
            "amplifiers_w": self.amplifiers_w,
            "total_w": self.total_w,
        }


def _normalise_active_links(
    topology: Topology,
    active_links: Optional[Iterable[Tuple[str, str]]],
    active_nodes: Set[str],
) -> Set[Tuple[str, str]]:
    """Resolve the set of active undirected link keys.

    When *active_links* is ``None`` every link whose two endpoints are active
    is considered active (constraint (1) of the paper applied permissively).
    Links with a powered-off endpoint are always excluded.
    """
    if active_links is None:
        candidate_keys = topology.link_keys()
    else:
        candidate_keys = [link_key(u, v) for (u, v) in active_links]
        unknown = [key for key in candidate_keys if not topology.has_link(*key)]
        if unknown:
            raise TopologyError(f"active link does not exist in topology: {unknown[0]}")
    return {
        key
        for key in candidate_keys
        if key[0] in active_nodes and key[1] in active_nodes
    }


def network_power(
    topology: Topology,
    model: PowerModel,
    active_nodes: Optional[Iterable[str]] = None,
    active_links: Optional[Iterable[Tuple[str, str]]] = None,
) -> PowerBreakdown:
    """Compute the power drawn by an active subset of the network.

    Args:
        topology: The physical topology.
        model: Per-element power model.
        active_nodes: Names of powered-on nodes; defaults to all nodes.
            Nodes marked ``always_powered`` are counted as on even when not
            listed, matching the paper's treatment of feeder nodes.
        active_links: Canonical or directed ``(u, v)`` pairs of active links;
            defaults to every link between two active nodes.

    Returns:
        The :class:`PowerBreakdown` of the active subset.
    """
    if active_nodes is None:
        active = set(topology.nodes())
    else:
        active = set(active_nodes)
        unknown = active - set(topology.nodes())
        if unknown:
            raise TopologyError(f"active node does not exist in topology: {min(unknown)}")
        active |= {
            name for name in topology.nodes() if topology.node(name).always_powered
        }

    active_link_keys = _normalise_active_links(topology, active_links, active)

    # Float sums run in sorted order: set iteration follows PYTHONHASHSEED,
    # and the last ULP of every power figure would follow it too.
    chassis_w = 0.0
    for name in sorted(active):
        node = topology.node(name)
        if node.kind == "host":
            continue
        chassis_w += model.chassis_power_w(node)

    ports_w = 0.0
    amplifiers_w = 0.0
    for key in sorted(active_link_keys):
        link = topology.link(*key)
        for src, dst in link.arc_keys():
            if topology.node(src).kind == "host":
                continue
            arc = topology.arc(src, dst)
            ports_w += model.port_power_w(arc)
            amplifiers_w += model.amplifier_power_w(arc)

    return PowerBreakdown(chassis_w=chassis_w, ports_w=ports_w, amplifiers_w=amplifiers_w)


def full_power(topology: Topology, model: PowerModel) -> PowerBreakdown:
    """Power of the network with every element powered on ("original power")."""
    return network_power(topology, model)
