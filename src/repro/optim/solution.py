"""What the energy-aware solvers share: the result type, the watts each
element costs, and the on/off half of the paper's model (Section 2.2.1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..power.accounting import element_power, network_power
from ..power.model import PowerModel
from ..routing.highs import CscMatrix, csc_matrix
from ..routing.paths import RoutingTable
from ..topology.base import Topology

LinkKey = Tuple[str, str]

#: A constraint family's entries: ``(rows, columns, their coefficients or
#: the one they share)``.
Entries = Tuple[np.ndarray, np.ndarray, Union[np.ndarray, float]]


class Family(NamedTuple):
    """*count* rows of one constraint family: its entries' rows (numbered
    from the family's first), columns and coefficients."""

    count: int
    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray


@dataclass
class EnergyAwareSolution:
    """Outcome of an energy-aware routing computation.

    Attributes:
        active_nodes: Nodes that stay powered on.
        active_links: Undirected (canonical) link keys that stay active.
        routing: Single-path routing table over the active subset, when the
            solver produces explicit paths (heuristics that only decide the
            active subset leave this ``None``).
        power_w: Power of the active subset under the solver's power model.
        optimal: Whether the solver proved optimality.
        solver: Name of the algorithm that produced the solution.
        gap: Relative MIP gap when reported by the solver (0 for heuristics).
    """

    active_nodes: Set[str]
    active_links: Set[LinkKey]
    routing: Optional[RoutingTable]
    power_w: float
    optimal: bool
    solver: str
    gap: float = 0.0

    @classmethod
    def of(
        cls,
        topology: Topology,
        power_model: PowerModel,
        nodes: Set[str],
        links: Set[LinkKey],
        routing: Optional[RoutingTable],
        solver: str,
        optimal: bool = False,
        gap: float = 0.0,
    ) -> "EnergyAwareSolution":
        """The solution that keeps *nodes* and *links* on, priced by *power_model*."""
        power = network_power(topology, power_model, nodes, links).total_w
        return cls(nodes, links, routing, power, optimal, solver, gap)

    def as_dict(self) -> Dict[str, object]:
        """Summary dictionary for experiment reports."""
        return {
            "solver": self.solver,
            "active_nodes": len(self.active_nodes),
            "active_links": len(self.active_links),
            "power_w": self.power_w,
            "optimal": self.optimal,
            "gap": self.gap,
        }


def element_power_coefficients(
    topology: Topology, power_model: PowerModel
) -> Tuple[Dict[str, float], Dict[LinkKey, float]]:
    """Per-node chassis and per-link (both directions) power coefficients.

    Returns:
        ``(node_power, link_power)`` where ``node_power[i]`` is ``Pc(i)`` and
        ``link_power[(u, v)]`` is ``Pl(u->v) + Pa(u->v) + Pl(v->u) + Pa(v->u)``
        for the canonical link key ``(u, v)``.  Host nodes and host-side ports
        carry zero cost, mirroring :mod:`repro.power.accounting`.
    """
    table = element_power(topology, power_model)
    link_power: Dict[LinkKey, float] = {}
    for key, arcs in table.arc_w.items():
        total = 0.0
        for port_w, amplifier_w in arcs:
            total += port_w + amplifier_w
        link_power[key] = total
    return dict(table.node_w), link_power


class OnOffModel:
    """The on/off half of the energy model, placed after a MILP's routing
    columns.

    Columns ``y0 + l`` (link ``l`` active) and ``x0 + i`` (node ``i``
    powered on) follow ``first_column`` routing columns, in
    :meth:`Topology.index` order.  :attr:`cost` and :attr:`lower` are
    full-width (zero on the routing columns): the watts of each element, and
    ``1`` for a node that is always powered or fixed on and a link fixed on
    (names the topology does not have are ignored).  :attr:`coupling` holds
    constraint (1), ``y_l <= x_i`` for both endpoints of every link, and
    constraint (3), ``x_i <= sum of y_l`` over the links of every node that
    has links and is not fixed on.
    """

    def __init__(
        self,
        topology: Topology,
        power_model: PowerModel,
        first_column: int,
        fixed_on_nodes: Optional[Iterable[str]],
        fixed_on_links: Optional[Iterable[LinkKey]],
    ) -> None:
        index = self.index = topology.index()
        num_links, num_nodes = len(index.link_keys), len(index.node_names)
        self.y0, self.x0 = first_column, first_column + num_links
        self.width = self.x0 + num_nodes
        y0, x0 = self.y0, self.x0

        node_power, link_power = element_power_coefficients(topology, power_model)
        self.cost = np.zeros(self.width)
        self.cost[y0:x0] = [link_power[key] for key in index.link_keys]
        self.cost[x0:] = [node_power[name] for name in index.node_names]

        always_on = element_power(topology, power_model).always_powered
        self.lower = np.zeros(self.width)
        node_fixed = index.node_mask(always_on.union(fixed_on_nodes or ()))
        self.lower[x0:][node_fixed] = 1.0
        self.lower[y0:x0][index.link_mask(fixed_on_links or ())] = 1.0

        ends = np.arange(2 * num_links)
        end_node = np.array(
            [index.node_index[name] for key in index.link_keys for name in key], dtype=int
        )
        free = np.flatnonzero(np.array([bool(links) for links in index.node_links]) & ~node_fixed)
        free_row = np.repeat(np.arange(len(free)), [len(index.node_links[node]) for node in free])
        free_link = np.array([link for node in free for link in index.node_links[node]], dtype=int)
        self.coupling = (
            # Constraint (1): an active link requires both endpoints powered on.
            self.rows(len(ends), (ends, y0 + ends // 2, 1.0), (ends, x0 + end_node, -1.0)),
            # Constraint (3): a router with no active incident link is off.
            self.rows(
                len(free), (np.arange(len(free)), x0 + free, 1.0), (free_row, y0 + free_link, -1.0)
            ),
        )

    def rows(self, count: int, *entries: Entries) -> Family:
        """*count* rows of one constraint family, as wide as the model."""
        at = np.concatenate([entry[0] for entry in entries])
        columns = np.concatenate([entry[1] for entry in entries])
        values = np.concatenate([np.broadcast_to(entry[2], len(entry[0])) for entry in entries])
        return Family(count, at, columns, values)

    def stack(self, families: Sequence[Family]) -> CscMatrix:
        """The matrix of *families*, one under the other, in the column-wise
        layout HiGHS takes: each column's entries by row, as SciPy's
        ``csc_array(vstack(...))`` orders them (no family repeats an entry,
        and explicit zeros stay)."""
        first = np.cumsum([0] + [family.count for family in families])
        at = np.concatenate(
            [family.rows + start for family, start in zip(families, first[:-1], strict=True)]
        )
        columns = np.concatenate([family.columns for family in families])
        values = np.concatenate([family.values for family in families])
        order = np.argsort(columns * int(first[-1]) + at)
        starts = np.searchsorted(columns[order], np.arange(self.width + 1))
        return csc_matrix((int(first[-1]), self.width), starts, at[order], values[order])

    def decode(
        self, solution: np.ndarray, routing: RoutingTable
    ) -> Tuple[Set[str], Set[LinkKey]]:
        """The nodes and links *solution* switches on, with every element
        *routing* uses (a relaxation may leave those fractional)."""
        on = (solution > 0.5).tolist()
        index = self.index
        link_on = zip(index.link_keys, on[self.y0 : self.x0], strict=True)
        node_on = zip(index.node_names, on[self.x0 :], strict=True)
        links = {key for key, active in link_on if active}
        nodes = {name for name, active in node_on if active}
        return nodes | routing.used_nodes(), links | routing.used_links()
