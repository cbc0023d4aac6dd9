"""Sample statistics, process accounting and the environment fingerprint."""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], rank: float) -> float:
    """Nearest-rank percentile (*rank* in 0..100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    index = max(0, math.ceil(rank / 100.0 * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


def supported_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    The median is the floor: it is reported whatever the sample count (the
    count is printed beside it).
    """
    best = PERCENTILES[0]
    for rank in PERCENTILES:
        if count * (1.0 - rank / 100.0) >= MIN_SAMPLES_BEYOND:
            best = rank
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


class SpeedReference:
    """A fixed kernel timed around every call, to divide out the box's drift.

    The 2-CPU reference box is a shared VM whose speed wanders by tens of
    percent within minutes — CPU time inflates with it — so a raw timing of
    the same commit differs more between two runs than any regression bound
    allows.  Every measuring process therefore times this kernel
    (interpreter arithmetic plus NumPy streaming over arrays larger than
    L2; no BLAS, no threads) before and after each call, and divides the
    call's time by its **local speed factor**: the median of those samples
    over the kernel's time on the undisturbed box.  A factor of 1.2 reads
    "the box was 20 % slow around this call".  Reported times are thus in
    reference-box milliseconds; the raw ones are printed beside them.
    """

    #: Median of the kernel on the undisturbed reference box (seconds).
    NOMINAL_S = 0.0125

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(400_000)
        self._y = np.random.default_rng(1).random(400_000)
        self.samples: List[float] = []
        #: The samples taken since the last call: the next call's "before".
        self._last: List[float] = []

    def sample(self) -> float:
        np = self._np
        started = time.perf_counter()
        total = 0
        for index in range(100_000):
            total += index * index
        for _ in range(2):
            z = self._x * self._y + self._x
            z[z > 0.5] = 0.0
            np.minimum(z, self._y).sum()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def start(self, count: int = 8) -> float:
        """The first block of samples; returns its speed factor."""
        self._last = [self.sample() for _ in range(count)]
        return statistics.median(self._last) / self.NOMINAL_S

    def local_factor(self, call_seconds: float) -> float:
        """Sample after a call (about 10 % of it, 1 to 24 samples).

        Returns the speed factor of the samples on both sides of the call.
        """
        count = max(1, min(24, int(0.10 * call_seconds / self.NOMINAL_S)))
        after = [self.sample() for _ in range(count)]
        factor = statistics.median(self._last + after) / self.NOMINAL_S
        self._last = after
        return factor

    def factor(self) -> float:
        """The whole run's speed factor (for display and whole-window rates)."""
        return statistics.median(self.samples) / self.NOMINAL_S


def cpu_seconds() -> float:
    """User + system CPU of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of another live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
        # The command name (field 2) may contain spaces; split after it.
        fields = stream.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime (fields 14, 15)
    return ticks / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def _rounded(payload: Any) -> Any:
    if isinstance(payload, float):
        return float(f"{payload:.12g}")
    if isinstance(payload, dict):
        return {key: _rounded(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_rounded(value) for value in payload]
    return payload


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON form of *payload*, floats at 12 digits.

    The program's results are bit-identical within one process, but a NumPy
    reduction's accumulation order can follow buffer alignment, so the last
    ULP may differ between two interpreters (``routing/mcf.py`` notes the
    same).  Twelve significant digits keep the digest comparable between
    processes and commits while still catching any real change.
    """
    canonical = json.dumps(_rounded(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _git_sha(root: str) -> Optional[str]:
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout (the acceptance driver's is not)
    return output.stdout.strip() or None


def fingerprint(root: str, seed: int) -> Dict[str, Any]:
    """What a result must carry to be comparable with another.

    Raises if ``REPRO_FAIRNESS_KERNEL`` is set: a pinned kernel would make
    ``engine_step`` measure something other than the engine's own choice.
    """
    if os.environ.get("REPRO_FAIRNESS_KERNEL"):
        raise RuntimeError(
            "REPRO_FAIRNESS_KERNEL is set; unset it before benchmarking"
        )
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
    }
