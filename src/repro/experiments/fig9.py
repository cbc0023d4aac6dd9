"""Figure 9 and Section 5.4: application performance over REsPoNse paths.

Paper setup (ModelNet, Abovenet topology): a BulletMedia live stream at
600 kb/s to 50 participants (a load the always-on paths absorb), then 50 more
clients join so the on-demand paths must be activated.  The routing tables
are those of REsPoNse-lat; the comparison point is OSPF-InvCap.

Paper result: the percentage of clients able to play the video is essentially
unaffected at both population sizes (boxplots hugging 100 %), and the average
block retrieval latency grows by only about 5 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..apps.streaming import (
    StreamingConfig,
    StreamingResult,
    pick_client_nodes,
    run_streaming_workload,
)
from ..core.planner import activate_paths
from ..core.response import ResponseConfig, build_response_plan
from ..routing.paths import RoutingTable
from ..scenario import PowerSpec, RoutingSpec, TopologySpec
from ..traffic.matrix import TrafficMatrix


@dataclass
class Fig9Result:
    """Per-scenario streaming statistics of the Figure 9 reproduction.

    Attributes:
        scenarios: Scenario label → streaming result.  Labels follow the
            figure: ``"REP-lat50"``, ``"InvCap50"``, ``"REP-lat100"``,
            ``"InvCap100"``.
        block_latency_increase_percent: Increase of mean block retrieval
            latency of REsPoNse-lat over InvCap per client population
            (paper: about 5 %).
    """

    scenarios: Dict[str, StreamingResult]
    block_latency_increase_percent: Dict[int, float]

    def rows(self) -> List[tuple]:
        """Plotted rows: (scenario, min %, median %, max %, playable fraction)."""
        rows = []
        for label, result in self.scenarios.items():
            minimum, median, maximum = result.delivery_percent_summary()
            rows.append((label, minimum, median, maximum, result.playable_client_fraction))
        return rows


def _streaming_routing_for_plan(topology, power_model, plan, demands) -> RoutingTable:
    """The per-pair paths REsPoNse's planner would use for this demand."""
    activation = activate_paths(topology, power_model, plan, demands)
    tables = plan.tables(include_failover=True)
    chosen = {}
    for pair, table_index in activation.assignment.items():
        path = tables[table_index].get(*pair)
        if path is not None:
            chosen[pair] = path
    return RoutingTable(chosen, name="response-lat-active")


#: 50 participants (a load the always-on paths absorb), then 50 more join.
CLIENT_COUNTS = (50, 100)
#: The REsPoNse-lat bound on always-on path delay over OSPF-InvCap.
LATENCY_BETA = 0.25
#: Seed of the client placement.
SEED = 9


def run_fig9() -> Fig9Result:
    """Reproduce the streaming experiment on the synthetic Abovenet topology.

    The topology, the REsPoNse-lat plan and the InvCap routing are built once
    and shared by every client population.
    """
    topology = TopologySpec("abovenet").build()
    power_model = PowerSpec("cisco").build(topology)
    config = StreamingConfig()

    source = topology.routers()[0]
    all_clients = pick_client_nodes(topology, source, max(CLIENT_COUNTS), seed=SEED)

    # REsPoNse-lat plan for source -> every possible client node.
    pairs = sorted({(source, node) for node in set(all_clients)})
    plan = build_response_plan(
        topology,
        power_model,
        pairs=pairs,
        config=ResponseConfig(num_paths=3, k=3, latency_beta=LATENCY_BETA),
    )
    invcap = RoutingSpec("ospf-invcap", params={"name": "invcap"}).build(topology, pairs)

    scenarios: Dict[str, StreamingResult] = {}
    latency_increase: Dict[int, float] = {}
    for count in CLIENT_COUNTS:
        clients = all_clients[:count]
        demand_per_pair: Dict[Tuple[str, str], float] = {}
        for node in clients:
            pair = (source, node)
            demand_per_pair[pair] = demand_per_pair.get(pair, 0.0) + config.stream_rate_bps
        demands = TrafficMatrix(demand_per_pair, name=f"streaming-{count}")

        response_routing = _streaming_routing_for_plan(topology, power_model, plan, demands)
        response_result = run_streaming_workload(
            topology, response_routing, source, clients, config
        )
        invcap_result = run_streaming_workload(topology, invcap, source, clients, config)

        scenarios[f"REP-lat{count}"] = response_result
        scenarios[f"InvCap{count}"] = invcap_result
        if invcap_result.mean_block_latency_s > 0:
            latency_increase[count] = 100.0 * (
                response_result.mean_block_latency_s / invcap_result.mean_block_latency_s
                - 1.0
            )
        else:
            latency_increase[count] = 0.0

    return Fig9Result(
        scenarios=scenarios, block_latency_increase_percent=latency_increase
    )
