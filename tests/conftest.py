"""Shared fixtures for the test suite.

Fixtures deliberately use small topologies (the Figure 3 example, a k=4
fat-tree, a diamond) so that even the MILP-backed tests run in milliseconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.power import CiscoRouterPowerModel, CommoditySwitchPowerModel
from repro.topology import Topology, build_example, build_fattree, build_geant
from repro.traffic import TrafficMatrix
from repro.units import mbps


@pytest.fixture
def run_under_hash_seeds():
    """Run ``python *args`` in a fresh interpreter per ``PYTHONHASHSEED``; the
    stdouts, in seed order.  26 is a seed whose results used to differ from 0's."""

    def run(args, seeds=("0", "26")):
        repo_root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        outputs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, *args],
                capture_output=True,
                text=True,
                env=dict(env, PYTHONHASHSEED=seed),
                check=False,
                cwd=str(repo_root),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        return outputs

    return run


@pytest.fixture
def read_trace():
    """Parser of an NDJSON trace sidecar into its span records."""

    def read(path):
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    return read


@pytest.fixture
def diamond() -> Topology:
    """A 4-node diamond: two disjoint 2-hop paths between ``a`` and ``d``."""
    topo = Topology("diamond")
    for name in "abcd":
        topo.add_node(name)
    topo.add_link("a", "b", capacity_bps=mbps(100), latency_s=0.001)
    topo.add_link("b", "d", capacity_bps=mbps(100), latency_s=0.001)
    topo.add_link("a", "c", capacity_bps=mbps(100), latency_s=0.002)
    topo.add_link("c", "d", capacity_bps=mbps(100), latency_s=0.002)
    return topo


@pytest.fixture
def line() -> Topology:
    """A 3-node line ``a - b - c``."""
    topo = Topology("line")
    for name in "abc":
        topo.add_node(name)
    topo.add_link("a", "b", capacity_bps=mbps(10))
    topo.add_link("b", "c", capacity_bps=mbps(10))
    return topo


@pytest.fixture
def example_topology() -> Topology:
    """The Figure 3 example topology (including router B)."""
    return build_example(include_b=True)


@pytest.fixture
def click_topology() -> Topology:
    """The Click testbed topology (Figure 3 without router B)."""
    return build_example(include_b=False)


@pytest.fixture
def fattree4() -> Topology:
    """A k=4 fat-tree with hosts."""
    return build_fattree(4)


@pytest.fixture(scope="session")
def geant() -> Topology:
    """The GÉANT-like topology (session-scoped: it is immutable in tests)."""
    return build_geant()


@pytest.fixture
def cisco_model() -> CiscoRouterPowerModel:
    """The representative ISP power model."""
    return CiscoRouterPowerModel()


@pytest.fixture
def commodity_model() -> CommoditySwitchPowerModel:
    """The datacenter commodity-switch power model."""
    return CommoditySwitchPowerModel(ports_at_peak=4)


@pytest.fixture
def diamond_demands() -> TrafficMatrix:
    """A small demand set on the diamond topology."""
    return TrafficMatrix({("a", "d"): mbps(40), ("d", "a"): mbps(10)})
