"""Capacity-based gravity traffic model.

For the Rocketfuel topologies the paper infers demands "using a
capacity-based gravity model (as in [9, 14]), where the incoming/outgoing
flow from each PoP is proportional to the combined capacity of adjacent
links".  The demand between an origin ``O`` and a destination ``D`` is then

.. math::

    d(O, D) = T \\cdot \\frac{w_O \\, w_D}{\\sum_{(o, d), o \\ne d} w_o w_d}

where ``w_i`` is the combined adjacent capacity of PoP ``i`` and ``T`` the
total offered traffic.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from ..exceptions import TrafficError
from ..topology.base import Topology
from .matrix import Pair, TrafficMatrix


def node_weights(topology: Topology) -> Dict[str, float]:
    """Gravity weights: combined capacity of the links adjacent to each non-host node."""
    weights = {name: topology.total_capacity_bps(name) for name in topology.routers()}
    total = sum(weights.values())
    if total <= 0:
        raise TrafficError("gravity weights are all zero; topology has no capacity")
    return weights


def gravity_matrix(
    topology: Topology,
    total_traffic_bps: float,
    pairs: Optional[Iterable[Pair]] = None,
    name: str = "gravity",
) -> TrafficMatrix:
    """Build a gravity-model traffic matrix carrying *total_traffic_bps*.

    Args:
        topology: Topology whose adjacent-capacity sums define the weights.
        total_traffic_bps: Total offered load summed over all pairs.
        pairs: Restrict the matrix to these origin-destination pairs
            (the paper selects random subsets of origins and destinations);
            defaults to all ordered pairs of non-host nodes.
        name: Name for the resulting matrix.

    Returns:
        A :class:`TrafficMatrix` whose demands sum to *total_traffic_bps*
        (up to floating-point rounding) and are proportional to the product
        of endpoint weights.
    """
    if not math.isfinite(total_traffic_bps) or total_traffic_bps < 0:
        raise TrafficError(
            f"total traffic must be finite and non-negative, got {total_traffic_bps}"
        )
    weights = node_weights(topology)
    if pairs is None:
        names = list(weights)
        selected: List[Pair] = [(o, d) for o in names for d in names if o != d]
    else:
        selected = list(pairs)
        for origin, destination in selected:
            if origin not in weights or destination not in weights:
                missing = origin if origin not in weights else destination
                raise TrafficError(f"pair endpoint {missing!r} has no gravity weight")
    if not selected:
        return TrafficMatrix.zero(name=name)

    products = {
        (origin, destination): weights[origin] * weights[destination]
        for origin, destination in selected
    }
    normaliser = sum(products.values())
    if normaliser <= 0:
        raise TrafficError("gravity normaliser is zero; check capacities")
    demands = {
        pair: total_traffic_bps * product / normaliser for pair, product in products.items()
    }
    return TrafficMatrix(demands, name=name)


def gravity_fractions(
    topology: Topology,
    pairs: Optional[Iterable[Pair]] = None,
) -> Dict[Pair, float]:
    """Per-pair fractions of the total load under the gravity model.

    Useful when an experiment sweeps the total volume while keeping the
    gravity-determined proportions fixed, as the paper does when calibrating
    the 100 % utilisation level.
    """
    matrix = gravity_matrix(topology, total_traffic_bps=1.0, pairs=pairs)
    return matrix.as_dict()
