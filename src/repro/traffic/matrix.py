"""Traffic matrices.

A :class:`TrafficMatrix` maps origin-destination pairs to demands in bits per
second — the ``d(O, D)`` of the paper's model.  Matrices are immutable value
objects: transformations (:meth:`TrafficMatrix.scaled`,
:meth:`TrafficMatrix.restricted_to`) return new instances, which keeps trace
replay and optimisation inputs free of aliasing surprises.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..exceptions import TrafficError

Pair = Tuple[str, str]

#: The ε demand of the demand-oblivious computations (Section 4.1: 1 bit/s).
DEFAULT_EPSILON_BPS = 1.0


class TrafficMatrix:
    """An immutable mapping from (origin, destination) pairs to demand in bps."""

    __slots__ = ("_demands", "name")

    def __init__(
        self,
        demands: Mapping[Pair, float],
        name: str = "traffic-matrix",
    ) -> None:
        cleaned: Dict[Pair, float] = {}
        for (origin, destination), value in demands.items():
            if origin == destination:
                raise TrafficError(
                    f"demand from a node to itself is not allowed: {origin!r}"
                )
            demand = float(value)
            # ``nan < 0`` is false: a NaN would pass a plain sign check.
            if not math.isfinite(demand) or demand < 0:
                raise TrafficError(
                    "demand must be finite and non-negative, "
                    f"got {demand} for {(origin, destination)}"
                )
            cleaned[(origin, destination)] = demand
        self._demands: Dict[Pair, float] = cleaned
        self.name = name

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(
        cls, pairs: Iterable[Pair], demand_bps: float, name: str = "uniform"
    ) -> "TrafficMatrix":
        """A matrix assigning the same demand to every listed pair."""
        return cls({pair: demand_bps for pair in pairs}, name=name)

    @classmethod
    def epsilon(cls, pairs: Iterable[Pair], name: str = "epsilon") -> "TrafficMatrix":
        """The paper's demand-oblivious input: every flow set to a tiny value.

        Section 4.1: "assuming no knowledge of the traffic matrix ... one can
        set all flows d(O,D) equal to a small value ε (e.g., 1 bit/s) to
        obtain a minimal-power routing with full connectivity".
        """
        return cls.uniform(pairs, DEFAULT_EPSILON_BPS, name=name)

    @classmethod
    def zero(cls, name: str = "zero") -> "TrafficMatrix":
        """The empty matrix."""
        return cls({}, name=name)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def pairs(self) -> List[Pair]:
        """All origin-destination pairs with an entry (including zero demand)."""
        return list(self._demands)

    def demand(self, origin: str, destination: str) -> float:
        """Demand for a pair, zero when the pair has no entry."""
        return self._demands.get((origin, destination), 0.0)

    def items(self) -> Iterator[Tuple[Pair, float]]:
        """Iterate over ``((origin, destination), demand)`` entries."""
        return iter(self._demands.items())

    @property
    def total_bps(self) -> float:
        """Sum of all demands."""
        return sum(self._demands.values())

    def origins(self) -> List[str]:
        """Distinct origins appearing in the matrix."""
        return sorted({origin for origin, _ in self._demands})

    def nodes(self) -> List[str]:
        """Distinct nodes appearing as origin or destination."""
        names = {origin for origin, _ in self._demands}
        names |= {destination for _, destination in self._demands}
        return sorted(names)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float, name: Optional[str] = None) -> "TrafficMatrix":
        """A copy with every demand multiplied by *factor*."""
        if not math.isfinite(factor) or factor < 0:
            raise TrafficError(f"scale factor must be finite and non-negative, got {factor}")
        return TrafficMatrix(
            {pair: demand * factor for pair, demand in self._demands.items()},
            name=name or f"{self.name}×{factor:g}",
        )

    def restricted_to(self, pairs: Iterable[Pair]) -> "TrafficMatrix":
        """A copy keeping only the listed pairs."""
        wanted = set(pairs)
        return TrafficMatrix(
            {pair: demand for pair, demand in self._demands.items() if pair in wanted},
            name=f"{self.name}-restricted",
        )

    def as_dict(self) -> Dict[Pair, float]:
        """A plain-dict copy of the demands."""
        return dict(self._demands)

    # ------------------------------------------------------------------ #
    # Dunders
    # ------------------------------------------------------------------ #
    def __getitem__(self, pair: Pair) -> float:
        return self._demands.get(pair, 0.0)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._demands

    def __len__(self) -> int:
        return len(self._demands)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return self._demands == other._demands

    def __hash__(self) -> int:  # pragma: no cover - matrices are rarely hashed
        return hash(frozenset(self._demands.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrafficMatrix(name={self.name!r}, pairs={len(self._demands)}, "
            f"total={self.total_bps:.3g} bps)"
        )


def all_pairs(nodes: Iterable[str]) -> List[Pair]:
    """Every ordered pair of distinct nodes."""
    names = list(nodes)
    return [(o, d) for o in names for d in names if o != d]


def select_random_pairs(
    nodes: Iterable[str],
    count: int,
    seed: int = 0,
) -> List[Pair]:
    """Select *count* random origin-destination pairs without replacement.

    The paper "select[s] the origins and destinations at random, as in [24]"
    for the ISP experiments; this helper reproduces that choice
    deterministically given a seed.
    """
    import numpy as np

    pairs = all_pairs(nodes)
    if count >= len(pairs):
        return pairs
    if count < 0:
        raise TrafficError(f"pair count must be non-negative, got {count}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=count, replace=False)
    return [pairs[int(index)] for index in sorted(chosen)]


def select_pairs_among_subset(
    nodes: Iterable[str],
    num_endpoints: int,
    num_pairs: int,
    seed: int = 0,
) -> List[Pair]:
    """Select random pairs whose endpoints come from a random node subset.

    The evaluation selects "random subsets of origins and destinations as in
    [24]": not every PoP terminates traffic, which is what lets REsPoNse put
    entire routers (not just links) to sleep.  This helper first draws
    ``num_endpoints`` candidate endpoints and then ``num_pairs`` ordered pairs
    among them.
    """
    import numpy as np

    names = sorted(nodes)
    if num_endpoints < 2:
        raise TrafficError(f"need at least 2 endpoints, got {num_endpoints}")
    rng = np.random.default_rng(seed)
    if num_endpoints < len(names):
        chosen_nodes = [
            names[int(index)]
            for index in rng.choice(len(names), size=num_endpoints, replace=False)
        ]
    else:
        chosen_nodes = names
    return select_random_pairs(chosen_nodes, num_pairs, seed=seed)
