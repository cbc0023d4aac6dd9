"""Stress factor of links (Section 4.2).

"We define the stress factor ``sf_{i->j}`` of a link as the ratio between the
number of flows routed via that link in the always-on assignments and the
link capacity ... Intuitively, this metric captures how likely it is that a
link might be a bottleneck."  On-demand paths are then computed while
avoiding a fraction (20 % by default) of the most stressed links, which is
the paper's demand-oblivious way of discovering useful extra capacity.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..traffic.matrix import Pair

#: Fraction of most-stressed links excluded by default (the paper's 20 %).
DEFAULT_EXCLUDE_FRACTION = 0.20

LinkKey = Tuple[str, str]


def stress_factors(
    topology: Topology,
    always_on_routing: RoutingTable,
    pairs: Optional[Iterable[Pair]] = None,
) -> Dict[LinkKey, float]:
    """Stress factor per undirected link under the always-on assignment.

    The factor counts how many installed flows traverse the link (in either
    direction) divided by the link capacity, expressed per Gb/s so the values
    are readable.  Only relative order matters to the framework.
    """
    selected = list(pairs) if pairs is not None else always_on_routing.pairs()
    paths = [path for pair in selected if (path := always_on_routing.get(*pair)) is not None]
    index = topology.index()
    counts = index.path_loads(paths, np.ones(len(paths)))[index.link_arcs].sum(axis=1)
    # A link's capacity is that of its first arc (``Link.capacity_bps``).
    factors = counts / (index.arc_capacity[index.link_arcs[:, 0]] / 1e9)
    return dict(zip(index.link_keys, factors.tolist(), strict=True))


def most_stressed_links(
    factors: Dict[LinkKey, float],
    exclude_fraction: float = DEFAULT_EXCLUDE_FRACTION,
) -> Set[LinkKey]:
    """The most-stressed *exclude_fraction* of links (only ones carrying flows).

    Args:
        factors: Output of :func:`stress_factors`.
        exclude_fraction: Fraction of the network's links to exclude,
            in ``[0, 1]``.

    Raises:
        ConfigurationError: If the fraction is outside ``[0, 1]``.
    """
    if not 0.0 <= exclude_fraction <= 1.0:
        raise ConfigurationError(
            f"exclude_fraction must be in [0, 1], got {exclude_fraction}"
        )
    loaded = [(key, value) for key, value in factors.items() if value > 0.0]
    if not loaded or exclude_fraction == 0.0:
        return set()
    count = int(round(exclude_fraction * len(factors)))
    count = min(count, len(loaded))
    ranked = sorted(loaded, key=lambda item: item[1], reverse=True)
    return {key for key, _ in ranked[:count]}
