"""Abstract power model interface (Section 2.2.1 of the paper).

The paper's objective charges, for every powered-on router ``i``:

* a chassis cost ``Pc(i)``,
* a per-port (line-card) cost ``Pl(i -> j)`` for every active arc leaving
  ``i``, linearly proportional to the number of used ports,
* an optical amplifier cost ``Pa(i -> j)`` that depends only on link length.

Concrete models (:mod:`repro.power.cisco`, :mod:`repro.power.alternative`,
:mod:`repro.power.commodity`) provide the constants; the network-wide
aggregation lives in :mod:`repro.power.accounting`.
"""

from __future__ import annotations

import abc

from ..topology.base import Arc, Node


class PowerModel(abc.ABC):
    """Per-element power costs of network devices.

    Host nodes (``kind == "host"``) are end systems, not network elements;
    every concrete model reports zero power for them and for the host side of
    host-attachment links so that datacenter topologies with explicit hosts
    account only for switch power.
    """

    #: Human-readable model name used in experiment output.
    name: str = "abstract"

    @abc.abstractmethod
    def chassis_power_w(self, node: Node) -> float:
        """Power drawn by the chassis of *node* when the node is on (watts)."""

    @abc.abstractmethod
    def port_power_w(self, arc: Arc) -> float:
        """Power drawn by the port/line card at ``arc.src`` feeding *arc* (watts)."""

    def amplifier_power_w(self, arc: Arc) -> float:
        """Power drawn by optical amplifiers along *arc* (watts).

        The default is zero; long-haul models override this.  The paper treats
        amplifier power (about 1.2 W per repeater) as negligible compared to
        line cards and chassis.
        """
        return 0.0

    # ------------------------------------------------------------------ #
    # Convenience aggregates
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_host(node: Node) -> bool:
        return node.kind == "host"
