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
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..exceptions import TopologyError
from ..topology.base import Topology, link_key
from ..topology.index import HashedKey
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


@dataclass
class ElementPower:
    """What one power model charges each element of one topology (watts):
    chassis per node (``0.0`` for a host), ``(port, amplifier)`` of each
    link's two arcs in ``Link.arc_keys()`` order (zeros for an arc leaving a
    host), the nodes counted as on whether listed or not, and the fully
    powered network's breakdown once asked for."""

    node_w: Dict[str, float]
    arc_w: Dict[Tuple[str, str], Tuple[Tuple[float, float], ...]]
    always_powered: FrozenSet[str]
    full: Optional[PowerBreakdown] = None

    @cached_property
    def charges(self) -> HashedKey:
        """The watts in the topology's node and link order, hashed once:
        beside the network's content, all a plan reads of the power model."""
        return HashedKey((tuple(self.node_w.values()), tuple(self.arc_w.values())))


def element_power(topology: Topology, model: PowerModel) -> ElementPower:
    """The watts *model* charges each element, kept on the topology's index."""
    memo = topology.index().element_power
    if model not in memo:
        node_w: Dict[str, float] = {}
        for name in topology.nodes():
            node = topology.node(name)
            node_w[name] = 0.0 if node.kind == "host" else model.chassis_power_w(node)
        arc_w = {}
        for link in topology.links():
            arcs = [topology.arc(*key) for key in link.arc_keys()]
            arc_w[link.key] = tuple(
                (0.0, 0.0)
                if topology.node(arc.src).kind == "host"
                else (model.port_power_w(arc), model.amplifier_power_w(arc))
                for arc in arcs
            )
        always = frozenset(n for n in node_w if topology.node(n).always_powered)
        memo[model] = ElementPower(node_w, arc_w, always)
    return memo[model]


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
            defaults to every link between two active nodes; a link with a
            powered-off endpoint never counts (the paper's constraint (1)).

    Returns:
        The :class:`PowerBreakdown` of the active subset.
    """
    table = element_power(topology, model)
    if active_nodes is None:
        active = set(table.node_w)
    else:
        active = set(active_nodes)
        unknown = active - table.node_w.keys()
        if unknown:
            raise TopologyError(f"active node does not exist in topology: {min(unknown)}")
        active |= table.always_powered
    if active_links is None:
        link_keys: Iterable[Tuple[str, str]] = table.arc_w
    else:
        link_keys = [link_key(u, v) for (u, v) in active_links]
        unknown_links = [key for key in link_keys if key not in table.arc_w]
        if unknown_links:
            raise TopologyError(f"active link does not exist in topology: {unknown_links[0]}")
    active_link_keys = {key for key in link_keys if key[0] in active and key[1] in active}

    # Float sums run in sorted order: set iteration follows PYTHONHASHSEED,
    # and the last ULP of every power figure would follow it too (a host's
    # zeros change nothing: ``x + 0.0 == x``).
    chassis_w = 0.0
    for name in sorted(active):
        chassis_w += table.node_w[name]
    ports_w = 0.0
    amplifiers_w = 0.0
    for key in sorted(active_link_keys):
        for port_w, amplifier_w in table.arc_w[key]:
            ports_w += port_w
            amplifiers_w += amplifier_w
    return PowerBreakdown(chassis_w=chassis_w, ports_w=ports_w, amplifiers_w=amplifiers_w)


def full_power(topology: Topology, model: PowerModel) -> PowerBreakdown:
    """Power of the network with every element powered on ("original power")."""
    table = element_power(topology, model)
    if table.full is None:
        table.full = network_power(topology, model)
    return table.full
