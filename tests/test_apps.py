"""Tests for the streaming and web application workloads."""

import pytest

from repro.apps import (
    WebConfig,
    pick_client_nodes,
    run_streaming_workload,
    run_web_workload,
    specweb_file_sizes,
)
from repro.exceptions import ConfigurationError
from repro.routing import ospf_invcap_routing
from repro.topology import Topology, build_abovenet
from repro.units import mbps


@pytest.fixture
def star() -> Topology:
    """A small star: server ``s`` with three stub nodes behind a hub."""
    topo = Topology("star")
    topo.add_node("s")
    topo.add_node("hub")
    for name in ("c1", "c2", "c3"):
        topo.add_node(name)
    topo.add_link("s", "hub", capacity_bps=mbps(10), latency_s=0.005)
    topo.add_link("hub", "c1", capacity_bps=mbps(10), latency_s=0.005)
    topo.add_link("hub", "c2", capacity_bps=mbps(10), latency_s=0.010)
    topo.add_link("hub", "c3", capacity_bps=mbps(2), latency_s=0.005)
    return topo


# --------------------------------------------------------------------- #
# Streaming workload
# --------------------------------------------------------------------- #
def test_streaming_all_clients_play_when_capacity_ample(star):
    routing = ospf_invcap_routing(star)
    clients = ["c1", "c2", "c1"]
    result = run_streaming_workload(star, routing, "s", clients)
    assert result.playable_client_fraction == pytest.approx(1.0)
    minimum, median, maximum = result.delivery_percent_summary()
    assert minimum == median == maximum == pytest.approx(100.0)
    assert result.mean_block_latency_s > 0


def test_streaming_degrades_when_bottleneck_oversubscribed(star):
    routing = ospf_invcap_routing(star)
    # 20 clients at 600 kb/s = 12 Mb/s through the 10 Mb/s s-hub link.
    clients = ["c1", "c2"] * 10
    result = run_streaming_workload(star, routing, "s", clients)
    assert result.playable_client_fraction < 1.0
    minimum, _median, maximum = result.delivery_percent_summary()
    assert minimum < 100.0
    assert maximum <= 100.0


def test_streaming_latency_reflects_path_propagation(star):
    routing = ospf_invcap_routing(star)
    result = run_streaming_workload(star, routing, "s", ["c1", "c2"])
    latencies = result.per_client_block_latency_s
    assert latencies["client-1"] > latencies["client-0"]  # c2 is farther


def test_streaming_validation(star):
    routing = ospf_invcap_routing(star)
    with pytest.raises(ConfigurationError):
        run_streaming_workload(star, routing, "s", [])
    with pytest.raises(ConfigurationError):
        run_streaming_workload(star, routing, "s", ["s"])
    partial = ospf_invcap_routing(star, pairs=[("s", "c1")])
    with pytest.raises(ConfigurationError):
        run_streaming_workload(star, partial, "s", ["c2"])


def test_pick_client_nodes_deterministic():
    topology = build_abovenet()
    source = topology.routers()[0]
    first = pick_client_nodes(topology, source, 10, seed=3)
    second = pick_client_nodes(topology, source, 10, seed=3)
    assert first == second
    assert len(first) == 10
    assert source not in first


# --------------------------------------------------------------------- #
# Web workload
# --------------------------------------------------------------------- #
def test_specweb_file_sizes_distribution():
    sizes = specweb_file_sizes(100, seed=1)
    assert len(sizes) == 100
    assert (sizes >= 500).all()
    assert (sizes <= 2_000_000).all()
    assert sizes.mean() > 5_000
    with pytest.raises(ConfigurationError):
        specweb_file_sizes(0, seed=1)


def test_web_workload_latency_statistics(star):
    routing = ospf_invcap_routing(star)
    config = WebConfig(requests_per_client=50, seed=7)
    result = run_web_workload(star, routing, "s", ["c1", "c2"], config)
    assert result.mean_latency_s > 0
    assert result.median_latency_s <= result.p95_latency_s
    assert len(result.per_request_latency_s) == 100


def test_web_workload_longer_paths_cost_more(star):
    routing = ospf_invcap_routing(star)
    config = WebConfig(requests_per_client=50, seed=7)
    near = run_web_workload(star, routing, "s", ["c1"], config)
    far = run_web_workload(star, routing, "s", ["c2"], config)
    assert far.mean_latency_s > near.mean_latency_s
    assert far.mean_latency_increase_percent(near) > 0


def test_web_workload_validation(star):
    routing = ospf_invcap_routing(star)
    with pytest.raises(ConfigurationError):
        run_web_workload(star, routing, "s", [])
    with pytest.raises(ConfigurationError):
        run_web_workload(star, routing, "s", ["s"])
