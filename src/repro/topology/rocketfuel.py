"""Synthetic Rocketfuel-style PoP-level ISP topologies (Abovenet, Genuity).

The paper uses two PoP-level topologies inferred by Rocketfuel (Spring et
al. [32]): Abovenet (AS 6461) and Genuity/Level3 (AS 1).  The original maps
are no longer distributed, so this module regenerates PoP-level graphs with
the same construction the paper relies on:

* node and link counts of the published PoP-level maps,
* link capacities chosen as in Kandula et al. [26] and quoted in the paper:
  "links are assigned 100 Mbps if they are connected to an end point with a
  degree of less than seven, otherwise they are assigned 52 Mbps",
* link latencies "as determined by the Rocketfuel mapping engine" — here
  derived from synthetic continental-scale PoP coordinates.

Construction is deterministic (seeded) so every run of the evaluation sees
the same network.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import TopologyError
from ..units import mbps
from .base import Topology

#: Published PoP-level sizes (PoPs, inter-PoP links) used as generation targets.
ABOVENET_NUM_POPS = 22
ABOVENET_NUM_LINKS = 42
GENUITY_NUM_POPS = 42
GENUITY_NUM_LINKS = 110

#: Capacity rule from the paper (after Kandula et al. [26]).
HIGH_DEGREE_THRESHOLD = 7
LOW_DEGREE_CAPACITY_BPS = mbps(100)
HIGH_DEGREE_CAPACITY_BPS = mbps(52)

#: Continental-scale coordinate box (kilometres) for synthetic PoP placement.
_CONTINENT_SPAN_KM = 4_500.0
_FIBRE_SPEED_KM_PER_S = 200_000.0


def _generate_pop_graph(
    name: str,
    num_pops: int,
    num_links: int,
    seed: int,
) -> Topology:
    """Generate a connected PoP-level graph with the requested size.

    The generator mimics ISP backbone structure: a preferential-attachment
    backbone (which yields a few high-degree hub PoPs, as observed in
    Rocketfuel maps) augmented with random shortcut links until the target
    link count is reached.
    """
    if num_pops < 3:
        raise TopologyError(f"need at least 3 PoPs, got {num_pops}")
    min_links = num_pops - 1
    if num_links < min_links:
        raise TopologyError(
            f"{num_links} links cannot connect {num_pops} PoPs (need >= {min_links})"
        )
    rng = np.random.default_rng(seed)
    pop_names = [f"{name}-pop{i:02d}" for i in range(num_pops)]
    positions = {
        pop: (
            float(rng.uniform(0.0, _CONTINENT_SPAN_KM)),
            float(rng.uniform(0.0, _CONTINENT_SPAN_KM * 0.6)),
        )
        for pop in pop_names
    }

    # Preferential-attachment backbone: node i attaches to an existing node
    # chosen with probability proportional to (degree + 1).
    degrees = {pop: 0 for pop in pop_names}
    edges: set[Tuple[str, str]] = set()

    def canonical(u: str, v: str) -> Tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    for index in range(1, num_pops):
        candidates = pop_names[:index]
        weights = np.array([degrees[c] + 1.0 for c in candidates])
        weights = weights / weights.sum()
        target = candidates[int(rng.choice(len(candidates), p=weights))]
        edge = canonical(pop_names[index], target)
        edges.add(edge)
        degrees[edge[0]] += 1
        degrees[edge[1]] += 1

    # Shortcut links, biased toward nearby PoPs (ISP backbones are roughly
    # geographic), until the target count is reached.
    attempts = 0
    max_attempts = 50 * num_links
    while len(edges) < num_links and attempts < max_attempts:
        attempts += 1
        u, v = rng.choice(num_pops, size=2, replace=False)
        pu, pv = pop_names[int(u)], pop_names[int(v)]
        edge = canonical(pu, pv)
        if edge in edges:
            continue
        (x1, y1), (x2, y2) = positions[pu], positions[pv]
        distance = float(np.hypot(x1 - x2, y1 - y2))
        accept_probability = np.exp(-distance / (_CONTINENT_SPAN_KM / 3.0))
        if rng.random() > accept_probability:
            continue
        edges.add(edge)
        degrees[edge[0]] += 1
        degrees[edge[1]] += 1
    # If geographic rejection was too strict, fill in uniformly at random.
    while len(edges) < num_links:
        u, v = rng.choice(num_pops, size=2, replace=False)
        edge = canonical(pop_names[int(u)], pop_names[int(v)])
        if edge not in edges:
            edges.add(edge)
            degrees[edge[0]] += 1
            degrees[edge[1]] += 1

    topo = Topology(name=name)
    for pop in pop_names:
        topo.add_node(pop, kind="router", level="pop")
    for u, v in sorted(edges):
        (x1, y1), (x2, y2) = positions[u], positions[v]
        distance_km = float(np.hypot(x1 - x2, y1 - y2)) * 1.3 + 10.0
        latency_s = distance_km / _FIBRE_SPEED_KM_PER_S
        # Capacities are assigned after the degree distribution is known; add
        # a placeholder now and rewrite below via a second pass.
        topo.add_link(u, v, capacity_bps=1.0, latency_s=latency_s, length_km=distance_km)

    return _assign_rocketfuel_capacities(topo)


def _assign_rocketfuel_capacities(topo: Topology) -> Topology:
    """Apply the degree-based capacity rule, rebuilding the topology."""
    rebuilt = Topology(name=topo.name)
    for node in topo.nodes():
        record = topo.node(node)
        rebuilt.add_node(
            record.name,
            kind=record.kind,
            level=record.level,
            always_powered=record.always_powered,
        )
    for link in topo.links():
        low_degree = (
            topo.degree(link.u) < HIGH_DEGREE_THRESHOLD
            and topo.degree(link.v) < HIGH_DEGREE_THRESHOLD
        )
        capacity = LOW_DEGREE_CAPACITY_BPS if low_degree else HIGH_DEGREE_CAPACITY_BPS
        rebuilt.add_link(
            link.u,
            link.v,
            capacity_bps=capacity,
            latency_s=link.latency_s,
            length_km=link.length_km,
        )
    return rebuilt


def build_abovenet(seed: int = 6461) -> Topology:
    """Build the synthetic Abovenet (AS 6461) PoP-level topology."""
    return _generate_pop_graph("abovenet", ABOVENET_NUM_POPS, ABOVENET_NUM_LINKS, seed)


def build_genuity(seed: int = 1) -> Topology:
    """Build the synthetic Genuity (AS 1) PoP-level topology."""
    return _generate_pop_graph("genuity", GENUITY_NUM_POPS, GENUITY_NUM_LINKS, seed)


def build_rocketfuel(
    name: str,
    num_pops: int,
    num_links: int,
    seed: int = 0,
) -> Topology:
    """Build a custom Rocketfuel-style PoP-level topology.

    Args:
        name: Topology name (also the node-name prefix).
        num_pops: Number of PoPs.
        num_links: Number of inter-PoP links (must allow connectivity).
        seed: Random seed.
    """
    return _generate_pop_graph(name, num_pops, num_links, seed)
