"""The REsPoNse placement decision, written once over ``Topology.index()``.

Section 4.4: an agent keeps its traffic on the always-on paths while every
arc stays within the utilisation SLO, activates the on-demand paths in order
when it does not, and falls back to failover paths when a link fails.  Both
halves of the reproduction make that decision here:
:func:`~repro.core.planner.activate_paths` (offline, the converged state for
one traffic matrix) and :class:`~repro.core.te.ResponseTEController` (online,
at probe epochs on the flow-level simulator).

A candidate is an installed path compiled to arc / link index arrays; loads
are one vector in arc-index order, usability a gather over a per-link mask.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..routing.paths import Path, RoutingTable
from ..topology.index import CompiledPath, TopologyIndex
from ..traffic.matrix import Pair


class Installed(NamedTuple):
    """One installed path of a pair: its table, the table's own
    :class:`Path` object (identity matters to the simulator's flow-set
    cache) and its compiled index arrays."""

    table_index: int
    path: Path
    compiled: CompiledPath

    @property
    def arcs(self) -> np.ndarray:
        """Indices of the arcs the path traverses, in hop order."""
        return self.compiled.arc_indices

    @property
    def links(self) -> np.ndarray:
        """Indices of the links under those arcs."""
        return self.compiled.link_indices


class InstalledPaths:
    """Per pair, the installed paths of *tables* in table order, compiled
    through *index* (each pair once, on first use)."""

    def __init__(self, index: TopologyIndex, tables: Sequence[RoutingTable]) -> None:
        self.index = index
        self.tables = list(tables)
        self._entries: Dict[Pair, List[Installed]] = {}

    def of(self, pair: Pair) -> List[Installed]:
        """The pair's installed paths, lowest table first (tables without
        the pair are skipped)."""
        entries = self._entries.get(pair)
        if entries is None:
            entries = self._entries[pair] = [
                Installed(table_index, path, self.index.compile_path(path))
                for table_index, table in enumerate(self.tables)
                if (path := table.get(*pair)) is not None
            ]
        return entries


def usable(entries: Sequence[Installed], link_ok: np.ndarray) -> List[Installed]:
    """The entries whose every link is ok in the per-link mask."""
    return [entry for entry in entries if link_ok[entry.links].all()]


def choose(
    loads: np.ndarray,
    limit: np.ndarray,
    capacity: np.ndarray,
    entries: Sequence[Installed],
    demand: float,
) -> Tuple[Installed, bool]:
    """Where *demand* goes among the (non-empty) *entries*.

    The first entry whose arcs all stay within *limit* once the demand is
    added; if none does, the entry with the most bottleneck headroom
    ``(capacity - loads)[arcs].min()``, flagged overloaded (congestion
    rather than loss of connectivity — the paper's "no worse than existing
    approaches under unexpected peaks").
    """
    for entry in entries:
        arcs = entry.arcs
        if not (loads[arcs] + demand > limit[arcs]).any():
            return entry, False
    return max(entries, key=lambda entry: (capacity[entry.arcs] - loads[entry.arcs]).min()), True


def add_load(loads: np.ndarray, entry: Installed, demand: float) -> None:
    """Put *demand* on the entry's arcs."""
    loads[entry.arcs] += demand


def release_load(loads: np.ndarray, entry: Installed, amount: float) -> None:
    """Take *amount* off the entry's arcs, never below zero (a flow's
    measured rate can exceed what the planned vector still holds for it)."""
    arcs = entry.arcs
    loads[arcs] = np.maximum(0.0, loads[arcs] - amount)
