"""Media-streaming workload (BulletMedia-style, Section 5.4 / Figure 9).

The paper streams a 600 kb/s file to 50 participants over REsPoNse-lat paths
in a ModelNet emulation of Abovenet, then doubles the client population so
that the on-demand paths must be activated, and measures (a) the percentage
of clients that can play the video (blocks arrive before their play
deadlines) and (b) the average block retrieval latency.

The reproduction models each client as a long-lived flow from the streaming
source; achieved rates follow from proportional sharing of bottleneck links
under the supplied routing, and block retrieval latency combines propagation
delay with the serialisation time of a block at the achieved rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..units import kbps

#: Stream rate used in the paper's experiment.
DEFAULT_STREAM_RATE_BPS = kbps(600)


@dataclass
class StreamingConfig:
    """Parameters of the streaming workload.

    Attributes:
        stream_rate_bps: Media bit rate each client must sustain.
        block_duration_s: Playback duration of one media block.
        startup_buffer_s: Client-side buffer before playback starts; a client
            can absorb block latencies up to ``block_duration_s +
            startup_buffer_s`` without stalling.
        playable_rate_fraction: Minimum fraction of the stream rate a client
            must achieve to keep up in steady state.
        max_fetch_rate_multiple: Clients fetch blocks at most this multiple of
            the stream rate (streaming players pace their downloads), which
            keeps block-latency comparisons from being dominated by idle
            capacity differences between routings.
    """

    stream_rate_bps: float = DEFAULT_STREAM_RATE_BPS
    block_duration_s: float = 2.0
    startup_buffer_s: float = 5.0
    playable_rate_fraction: float = 0.98
    max_fetch_rate_multiple: float = 1.5


@dataclass
class StreamingResult:
    """Outcome of a streaming run.

    Attributes:
        per_client_delivery_percent: Percentage of the stream each client can
            play (100 when it keeps up; lower when its share of a bottleneck
            is insufficient) — the quantity whose boxplot is Figure 9.
        playable_client_fraction: Fraction of clients that can play the video.
        mean_block_latency_s: Average block retrieval latency across clients.
        per_client_block_latency_s: Block retrieval latency per client.
    """

    per_client_delivery_percent: Dict[str, float]
    playable_client_fraction: float
    mean_block_latency_s: float
    per_client_block_latency_s: Dict[str, float]

    def delivery_percent_summary(self) -> Tuple[float, float, float]:
        """(min, median, max) of the per-client delivery percentage."""
        values = np.array(list(self.per_client_delivery_percent.values()))
        if values.size == 0:
            return (0.0, 0.0, 0.0)
        return float(values.min()), float(np.median(values)), float(values.max())


def run_streaming_workload(
    topology: Topology,
    routing: RoutingTable,
    source: str,
    clients: Sequence[str],
    config: Optional[StreamingConfig] = None,
) -> StreamingResult:
    """Run the streaming workload over a fixed routing.

    Args:
        topology: The emulated topology.
        routing: Paths in effect (e.g. the activation planner's choice of
            REsPoNse paths, or the OSPF-InvCap baseline).
        source: The streaming source node.
        clients: Client nodes (one stream per entry; repeat a node to attach
            several clients to it).
        config: Workload parameters.

    Returns:
        The :class:`StreamingResult` for this routing.

    Raises:
        ConfigurationError: If a client has no path from the source.
    """
    cfg = config or StreamingConfig()
    if not clients:
        raise ConfigurationError("the streaming workload needs at least one client")

    # One stream per client instance, from the source over the installed
    # path (clients co-located on a node are that many streams on it).
    if source in clients:
        raise ConfigurationError("clients must not be co-located with the source")
    missing = [node for node in clients if routing.get(source, node) is None]
    if missing:
        raise ConfigurationError(f"routing has no path for pair {(source, missing[0])}")
    paths = [routing.path(source, node) for node in clients]

    # Fair-share bandwidth per arc: its capacity split over the concurrent
    # streams crossing it (at least one).
    index = topology.index()
    streams = index.path_loads(paths, np.ones(len(paths)))
    fair_share = index.arc_capacity / np.maximum(streams, 1)

    delivery: Dict[str, float] = {}
    latency: Dict[str, float] = {}
    block_bits = cfg.stream_rate_bps * cfg.block_duration_s
    for position, path in enumerate(paths):
        client_id = f"client-{position}"
        # The client's equal share of every arc it crosses; the stream keeps
        # up as long as the share covers its rate.
        bandwidth = float(fair_share[index.compile_path(path).arc_indices].min())
        achieved = min(cfg.stream_rate_bps, bandwidth)
        share = achieved / cfg.stream_rate_bps
        propagation = path.latency(topology)
        fetch_rate = min(bandwidth, cfg.stream_rate_bps * cfg.max_fetch_rate_multiple)
        block_latency = propagation + block_bits / max(fetch_rate, 1.0)
        deadline = cfg.block_duration_s + cfg.startup_buffer_s
        keeps_up = achieved >= cfg.playable_rate_fraction * cfg.stream_rate_bps
        in_time = block_latency <= deadline
        delivery[client_id] = 100.0 if keeps_up and in_time else 100.0 * min(1.0, share)
        latency[client_id] = block_latency

    playable = sum(
        1
        for value in delivery.values()
        if value >= cfg.playable_rate_fraction * 100.0
    )
    return StreamingResult(
        per_client_delivery_percent=delivery,
        playable_client_fraction=playable / len(delivery),
        mean_block_latency_s=float(np.mean(list(latency.values()))),
        per_client_block_latency_s=latency,
    )


def pick_client_nodes(
    topology: Topology,
    source: str,
    num_clients: int,
    seed: int = 0,
) -> List[str]:
    """Choose client attachment nodes uniformly at random (excluding the source)."""
    rng = np.random.default_rng(seed)
    candidates = [node for node in topology.routers() if node != source]
    if not candidates:
        raise ConfigurationError("topology has no candidate client nodes")
    indices = rng.integers(0, len(candidates), size=num_clients)
    return [candidates[int(index)] for index in indices]
