"""Section 5.4 (text): web retrieval latency over REsPoNse paths.

Paper result: with an Apache server on one stub node and httperf clients on
four others, retrieving 100 static files whose sizes follow the SPECweb2005
online-banking distribution, "the web retrieval latency increases by only 9 %
when we switch from OSPF-InvCap to REsPoNse".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..apps.web import WebConfig, WebResult, run_web_workload
from ..core.response import ResponseConfig, build_response_plan
from ..routing.paths import RoutingTable
from ..scenario import PowerSpec, RoutingSpec, TopologySpec


@dataclass
class WebLatencyResult:
    """Latency comparison between REsPoNse-lat and OSPF-InvCap paths."""

    response: WebResult
    invcap: WebResult

    @property
    def latency_increase_percent(self) -> float:
        """Mean retrieval-latency increase of REsPoNse over InvCap (paper: ≈9 %)."""
        return self.response.mean_latency_increase_percent(self.invcap)

    def rows(self) -> List[tuple]:
        """Report rows: (routing, mean latency ms, median ms, p95 ms)."""
        return [
            (
                "REsPoNse-lat",
                self.response.mean_latency_s * 1e3,
                self.response.median_latency_s * 1e3,
                self.response.p95_latency_s * 1e3,
            ),
            (
                "OSPF-InvCap",
                self.invcap.mean_latency_s * 1e3,
                self.invcap.median_latency_s * 1e3,
                self.invcap.p95_latency_s * 1e3,
            ),
        ]


#: An Apache server on one stub node, httperf clients on four others.
NUM_CLIENTS = 4
#: The REsPoNse-lat bound on always-on path delay over OSPF-InvCap.
LATENCY_BETA = 0.25


def run_web_latency() -> WebLatencyResult:
    """Reproduce the web-workload comparison on the synthetic Abovenet topology."""
    topology = TopologySpec("abovenet").build()
    power_model = PowerSpec("cisco").build(topology)
    cfg = WebConfig()

    nodes = topology.routers()
    # Stub nodes: lowest-degree PoPs act as the server and client sites.
    stubs = sorted(nodes, key=topology.degree)[: NUM_CLIENTS + 1]
    server, clients = stubs[0], stubs[1:]

    pairs = [
        *((server, client) for client in clients),
        *((client, server) for client in clients),
    ]
    plan = build_response_plan(
        topology,
        power_model,
        pairs=pairs,
        config=ResponseConfig(num_paths=3, k=3, latency_beta=LATENCY_BETA),
    )
    response_routing: RoutingTable = plan.always_on_table
    invcap_routing = RoutingSpec("ospf-invcap", params={"name": "invcap"}).build(
        topology, pairs
    )

    response_result = run_web_workload(topology, response_routing, server, clients, cfg)
    invcap_result = run_web_workload(topology, invcap_routing, server, clients, cfg)
    return WebLatencyResult(response=response_result, invcap=invcap_result)
