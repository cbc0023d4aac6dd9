"""Traffic traces: time-ordered sequences of traffic matrices.

The evaluation replays demand traces (GÉANT 15-minute matrices, Google
datacenter 5-minute volumes, sine-wave datacenter demand).  A
:class:`TrafficTrace` is the common container: a fixed measurement interval
and one :class:`~repro.traffic.matrix.TrafficMatrix` per interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from ..exceptions import TrafficError
from .matrix import TrafficMatrix


@dataclass(frozen=True)
class TraceInterval:
    """One interval of a trace: start time (seconds) and its traffic matrix."""

    start_s: float
    matrix: TrafficMatrix


class TrafficTrace:
    """A time-ordered sequence of traffic matrices at a fixed interval."""

    def __init__(
        self,
        matrices: Sequence[TrafficMatrix],
        interval_s: float,
        start_s: float = 0.0,
        name: str = "trace",
    ) -> None:
        if interval_s <= 0:
            raise TrafficError(f"interval must be positive, got {interval_s}")
        if not matrices:
            raise TrafficError("a trace needs at least one matrix")
        self._matrices: List[TrafficMatrix] = list(matrices)
        self.interval_s = float(interval_s)
        self.start_s = float(start_s)
        self.name = name

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._matrices)

    def __iter__(self) -> Iterator[TraceInterval]:
        for index, matrix in enumerate(self._matrices):
            yield TraceInterval(self.start_s + index * self.interval_s, matrix)

    def __getitem__(self, index: int) -> TrafficMatrix:
        return self._matrices[index]

    def matrices(self) -> List[TrafficMatrix]:
        """All matrices in order."""
        return list(self._matrices)

    def timestamps(self) -> List[float]:
        """Interval start times in seconds."""
        return [self.start_s + index * self.interval_s for index in range(len(self))]

    @property
    def duration_s(self) -> float:
        """Total covered duration in seconds."""
        return len(self._matrices) * self.interval_s

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "TrafficTrace":
        """A trace with every matrix scaled by *factor*."""
        return TrafficTrace(
            [matrix.scaled(factor) for matrix in self._matrices],
            interval_s=self.interval_s,
            start_s=self.start_s,
            name=f"{self.name}×{factor:g}",
        )

    def subsampled(self, stride: int) -> "TrafficTrace":
        """Keep every *stride*-th matrix (useful to shorten experiments)."""
        if stride <= 0:
            raise TrafficError(f"stride must be positive, got {stride}")
        return TrafficTrace(
            self._matrices[::stride],
            interval_s=self.interval_s * stride,
            start_s=self.start_s,
            name=f"{self.name}/{stride}",
        )

    def mapped(
        self, transform: Callable[[TrafficMatrix], TrafficMatrix], name: Optional[str] = None
    ) -> "TrafficTrace":
        """Apply *transform* to every matrix."""
        return TrafficTrace(
            [transform(matrix) for matrix in self._matrices],
            interval_s=self.interval_s,
            start_s=self.start_s,
            name=name or f"{self.name}-mapped",
        )

    def peak_matrix(self) -> TrafficMatrix:
        """The element-wise peak over the whole trace.

        This is the ``d_peak`` input used when computing on-demand paths with
        knowledge of the peak-hour traffic matrix (Section 4.2).
        """
        peak: dict = {}
        for matrix in self._matrices:
            for pair, demand in matrix.items():
                if demand > peak.get(pair, 0.0):
                    peak[pair] = demand
        return TrafficMatrix(peak, name=f"{self.name}-peak")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrafficTrace(name={self.name!r}, intervals={len(self)}, "
            f"interval_s={self.interval_s})"
        )
