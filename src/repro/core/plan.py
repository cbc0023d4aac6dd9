"""The REsPoNse plan: the precomputed path sets installed into the network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import ConfigurationError
from ..optim.solution import EnergyAwareSolution
from ..routing.paths import RoutingTable
from ..traffic.matrix import Pair


@dataclass
class ResponsePlan:
    """The three path sets REsPoNse installs into network elements.

    Attributes:
        always_on: Solution of the always-on computation (routing plus the
            set of elements that stay powered at all times).
        on_demand: One or more on-demand routing tables, activated in order
            when the always-on paths can no longer meet the utilisation SLO.
        failover: The failover table protecting against single link failures.
        topology_name: Name of the topology the plan was computed for.
        variant: Human-readable variant label (``"response"``,
            ``"response-lat"``, ``"response-ospf"``, ``"response-heuristic"``).
    """

    always_on: EnergyAwareSolution
    on_demand: List[RoutingTable]
    failover: Optional[RoutingTable]
    topology_name: str = ""
    variant: str = "response"

    def __post_init__(self) -> None:
        if self.always_on.routing is None:
            raise ConfigurationError("a ResponsePlan needs an always-on routing table")

    @classmethod
    def from_tables(
        cls,
        topology,
        power_model,
        always_on_table: RoutingTable,
        on_demand_tables: Sequence[RoutingTable],
        failover_table: Optional[RoutingTable] = None,
    ) -> "ResponsePlan":
        """Build a plan from explicitly given routing tables.

        Useful when the paths are known a priori (the paper's Figure 3
        example) or produced by an external tool.  The always-on element set
        is derived from the always-on table.
        """
        always_on = EnergyAwareSolution.of(
            topology,
            power_model,
            always_on_table.used_nodes(),
            always_on_table.used_links(),
            always_on_table,
            "explicit-tables",
        )
        return cls(
            always_on=always_on,
            on_demand=list(on_demand_tables),
            failover=failover_table,
            topology_name=topology.name,
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def always_on_table(self) -> RoutingTable:
        """The always-on routing table."""
        assert self.always_on.routing is not None  # guaranteed by __post_init__
        return self.always_on.routing

    def tables(self, include_failover: bool = True) -> List[RoutingTable]:
        """All routing tables in activation order (always-on first)."""
        ordered = [self.always_on_table, *self.on_demand]
        if include_failover and self.failover is not None:
            ordered.append(self.failover)
        return ordered

    @property
    def num_paths(self) -> int:
        """Number of precomputed paths per pair (the paper's N)."""
        return len(self.tables(include_failover=True))

    def pairs(self) -> List[Pair]:
        """Pairs covered by the always-on table."""
        return self.always_on_table.pairs()

    def always_on_elements(self) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        """Nodes and links that stay powered regardless of demand."""
        return set(self.always_on.active_nodes), set(self.always_on.active_links)

    def summary(self) -> Dict[str, object]:
        """Compact description used by reports and experiment logs."""
        return {
            "variant": self.variant,
            "topology": self.topology_name,
            "pairs": len(self.pairs()),
            "num_on_demand_tables": len(self.on_demand),
            "has_failover": self.failover is not None,
            "always_on_nodes": len(self.always_on.active_nodes),
            "always_on_links": len(self.always_on.active_links),
        }
