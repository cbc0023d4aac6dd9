"""Integer-indexed arc table and compiled paths for the vectorized engine.

The seed engine kept all per-arc state in dictionaries keyed by
``(src, dst)`` name pairs, which made the per-step max-min fair-share loop a
pure-Python affair.  This module assigns every directed arc (and every
undirected link) of a topology a dense integer index once, at network
construction time, and compiles each :class:`~repro.routing.paths.Path` into
NumPy index arrays exactly once (memoised per node sequence).  All hot-path
bookkeeping — remaining capacities, per-arc loads, link usability — then
becomes array arithmetic over these indices.

This is the same precompute-once/cheap-inner-loop trick the optimisation
layer already borrows from GreenTE (restricting the search to k precomputed
paths); here it is applied to the simulation hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..routing.paths import Path
from ..topology.base import Topology, link_key


@dataclass(frozen=True)
class CompiledPath:
    """A path lowered to dense arc and link indices.

    Attributes:
        arc_indices: Index (into the arc table) of every directed arc the
            path traverses, in hop order.
        link_indices: Index of the undirected link under each arc, in the
            same order.
    """

    arc_indices: np.ndarray
    link_indices: np.ndarray

    @property
    def num_hops(self) -> int:
        """Number of arcs traversed."""
        return int(self.arc_indices.size)


class ArcTable:
    """Dense integer indexing of a topology's directed arcs and links.

    Attributes:
        arc_keys: ``(src, dst)`` key of every directed arc, in index order.
        arc_index: Mapping from arc key to its dense index.
        arc_capacity: Per-arc capacity (bps) as declared by the topology,
            aligned with ``arc_keys`` (used for utilisation accounting).
        link_keys: Canonical key of every undirected link, in index order.
        link_index: Mapping from canonical link key to its dense index.
        arc_link: For every arc, the index of its parent undirected link.
    """

    def __init__(self, topology: Topology) -> None:
        self.arc_keys: List[Tuple[str, str]] = list(topology.arc_keys())
        self.arc_index: Dict[Tuple[str, str], int] = {
            key: index for index, key in enumerate(self.arc_keys)
        }
        self.arc_capacity = np.array(
            [topology.arc(*key).capacity_bps for key in self.arc_keys], dtype=float
        )
        self.link_keys: List[Tuple[str, str]] = [link.key for link in topology.links()]
        self.link_index: Dict[Tuple[str, str], int] = {
            key: index for index, key in enumerate(self.link_keys)
        }
        self.arc_link = np.array(
            [self.link_index[link_key(*key)] for key in self.arc_keys], dtype=np.int64
        )
        self._compiled: Dict[Tuple[str, ...], CompiledPath] = {}

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs in the table."""
        return len(self.arc_keys)

    @property
    def num_links(self) -> int:
        """Number of undirected links in the table."""
        return len(self.link_keys)

    def compile_path(self, path: Path) -> CompiledPath:
        """The path lowered to index arrays (memoised per node sequence).

        Raises:
            SimulationError: If the path traverses an arc the topology does
                not have.
        """
        cached = self._compiled.get(path.nodes)
        if cached is not None:
            return cached
        try:
            arc_indices = np.array(
                [self.arc_index[key] for key in path.arc_keys()], dtype=np.int64
            )
        except KeyError as error:
            raise SimulationError(
                f"path {path!r} uses unknown arc {error.args[0]}"
            ) from None
        compiled = CompiledPath(
            arc_indices=arc_indices, link_indices=self.arc_link[arc_indices]
        )
        self._compiled[path.nodes] = compiled
        return compiled
