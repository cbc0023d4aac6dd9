"""Streamed per-interval series: NDJSON sidecar spill for large timelines.

At engine scale (ISP graphs, 10^5+ flows, long traces) the timeline engine
must not hold every per-interval :class:`~repro.scenario.timeline.IntervalOutcome`
in memory.  :class:`SeriesSpill` reuses the PR 7 interval-major pass: each
completed interval is written as one NDJSON row (power / utilisation /
violation / recomputation / step-cost per scheme, plus fired events) and
the in-memory outcome is dropped, so resident series state is bounded by a
single interval regardless of trace length.

Read-back is transparent: :class:`SpilledSchemeRun` serves the standard
``SchemeRun`` series interface by re-parsing the sidecar, so
:func:`~repro.scenario.engine.run_built_scenario` assembles a
:class:`~repro.scenario.engine.ScenarioResult` — and therefore
``canonical_dump`` — **bit-identically** to an in-memory run: Python's
``repr``-based JSON float round-trip is exact, so every spilled value
re-reads as the same float64.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Union

from ..exceptions import ConfigurationError


class SeriesSpill:
    """Writes one NDJSON row per timeline interval to a sidecar file.

    Usage: pass an instance to
    :func:`~repro.scenario.timeline.run_timeline` (or a path to
    :func:`~repro.scenario.engine.run_built_scenario`); the timeline engine
    calls :meth:`write_step` once per interval and :meth:`close` at the end
    of the replay.  Also usable as a context manager.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = self.path.open("w", encoding="utf-8")
        self.rows_written = 0

    def write_step(
        self,
        index: int,
        time_s: float,
        events: List[Dict[str, Any]],
        schemes: Dict[str, Dict[str, Any]],
    ) -> None:
        """Append one interval row (dropped from memory once written)."""
        if self._handle is None:
            raise ConfigurationError(f"spill file {self.path} is already closed")
        row = {
            "index": index,
            "time_s": time_s,
            "events": events,
            "schemes": schemes,
        }
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        self.rows_written += 1

    def close(self) -> None:
        """Flush and close the sidecar (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SeriesSpill":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Read-back
    # ------------------------------------------------------------------ #
    def rows(self) -> Iterator[Dict[str, Any]]:
        """Stream the written rows back (the file must be closed)."""
        return iter_spill_rows(self.path)

    def series(self, label: str, metric: str) -> List[Any]:
        """One scheme's raw per-interval values for *metric*, in order."""
        return [row["schemes"][label][metric] for row in self.rows()]


def iter_spill_rows(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Stream NDJSON rows from a spill sidecar, one interval at a time."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
