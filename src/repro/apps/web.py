"""Web workload (SPECweb2005-style, Section 5.4).

"One of the stub nodes is running the Apache Web server, while the remaining
four stub nodes are using httperf.  The Web workload ... consists of 100
static files with the file size drawn at random to follow the online banking
file distribution from the SPECweb2005 benchmark.  The web retrieval latency
increases by only 9 % when we switch from OSPF-InvCap to REsPoNse."

The reproduction models each retrieval as one round trip (request) plus the
transfer time of the file at the client's bottleneck share, plus a small
constant server service time.  The SPECweb2005 banking mix is dominated by
small dynamic-looking pages and images (a few KB to a few tens of KB) with a
thin tail of larger objects; a lognormal fit captures that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..routing.paths import RoutingTable
from ..topology.base import Topology

#: Lognormal parameters of the synthetic SPECweb-banking file-size mix (bytes).
BANKING_LOGNORMAL_MEAN = 9.6   # exp(9.6) ~ 15 KB median
BANKING_LOGNORMAL_SIGMA = 1.0
BANKING_MAX_FILE_BYTES = 2_000_000


@dataclass
class WebConfig:
    """Parameters of the web workload.

    Attributes:
        num_files: Number of distinct static files on the server.
        requests_per_client: Retrievals issued by every client node.
        server_time_s: Constant per-request server processing time.
        concurrency: Simultaneous requests per client used to estimate the
            per-request bandwidth share.
        seed: Seed of the file-size and request generators.
    """

    num_files: int = 100
    requests_per_client: int = 200
    server_time_s: float = 0.002
    concurrency: int = 4
    seed: int = 2005


@dataclass
class WebResult:
    """Latency statistics of one web-workload run."""

    mean_latency_s: float
    median_latency_s: float
    p95_latency_s: float
    per_request_latency_s: List[float]

    def mean_latency_increase_percent(self, reference: "WebResult") -> float:
        """Mean latency increase relative to a reference run, in percent."""
        if reference.mean_latency_s <= 0:
            return 0.0
        return 100.0 * (self.mean_latency_s / reference.mean_latency_s - 1.0)


def specweb_file_sizes(num_files: int, seed: int) -> np.ndarray:
    """File sizes (bytes) following the synthetic SPECweb banking mix."""
    if num_files <= 0:
        raise ConfigurationError(f"num_files must be positive, got {num_files}")
    rng = np.random.default_rng(seed)
    sizes = rng.lognormal(BANKING_LOGNORMAL_MEAN, BANKING_LOGNORMAL_SIGMA, size=num_files)
    return np.clip(sizes, 500, BANKING_MAX_FILE_BYTES)


def run_web_workload(
    topology: Topology,
    routing: RoutingTable,
    server: str,
    client_nodes: Sequence[str],
    config: Optional[WebConfig] = None,
) -> WebResult:
    """Run the web workload over a fixed routing.

    Args:
        topology: The emulated topology.
        routing: Paths in effect for the server-to-client traffic.
        server: Node hosting the web server.
        client_nodes: Stub nodes issuing requests (the paper uses four).
        config: Workload parameters.

    Returns:
        A :class:`WebResult` with per-request latencies.
    """
    cfg = config or WebConfig()
    if not client_nodes:
        raise ConfigurationError("the web workload needs at least one client node")
    sizes = specweb_file_sizes(cfg.num_files, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)

    index = topology.index()
    latencies: List[float] = []
    for client in client_nodes:
        if client == server:
            raise ConfigurationError("clients must not be co-located with the server")
        path = routing.get(server, client)
        reverse = routing.get(client, server)
        if path is None or reverse is None:
            raise ConfigurationError(f"routing has no path between {server} and {client}")
        forward_latency = path.latency(topology)
        request_latency = reverse.latency(topology)

        # Available bandwidth: the bottleneck capacity divided by the
        # client's concurrent requests.
        bottleneck = float(index.arc_capacity[index.compile_path(path).arc_indices].min())
        per_request_bandwidth = bottleneck / max(cfg.concurrency, 1)

        chosen = rng.integers(0, cfg.num_files, size=cfg.requests_per_client)
        for file_index in chosen:
            size_bits = float(sizes[file_index]) * 8.0
            transfer = size_bits / per_request_bandwidth
            latencies.append(
                request_latency + cfg.server_time_s + forward_latency + transfer
            )

    array = np.array(latencies)
    return WebResult(
        mean_latency_s=float(array.mean()),
        median_latency_s=float(np.median(array)),
        p95_latency_s=float(np.percentile(array, 95)),
        per_request_latency_s=latencies,
    )
