"""Synthetic GÉANT-like pan-European research network topology.

The paper replays 15 days of GÉANT traffic matrices (May–June 2005, 15-minute
intervals, dataset of Uhlig et al. [33]).  The original matrices are not
redistributable, so this module rebuilds the 2005 GÉANT PoP-level topology
from public information: 23 national PoPs interconnected by 10 Gb/s, 2.5 Gb/s
and 155 Mb/s circuits, with the characteristic sparse European mesh (average
degree a little over 3).

The node set and adjacency below follow the published GÉANT maps of that
period closely enough for the reproduction's purposes: what matters to the
paper's findings is the limited built-in redundancy (only a few alternative
paths per node pair), the link-capacity hierarchy and the continental-scale
propagation delays — all preserved here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..units import gbps, mbps
from .base import Topology

#: (node, approximate latitude, approximate longitude) for the 23 PoPs.
GEANT_POPS: List[Tuple[str, float, float]] = [
    ("AT", 48.2, 16.4),   # Vienna
    ("BE", 50.8, 4.4),    # Brussels
    ("CH", 46.2, 6.1),    # Geneva
    ("CZ", 50.1, 14.4),   # Prague
    ("DE", 50.1, 8.7),    # Frankfurt
    ("ES", 40.4, -3.7),   # Madrid
    ("FR", 48.9, 2.4),    # Paris
    ("GR", 38.0, 23.7),   # Athens
    ("HR", 45.8, 16.0),   # Zagreb
    ("HU", 47.5, 19.0),   # Budapest
    ("IE", 53.3, -6.3),   # Dublin
    ("IL", 32.1, 34.8),   # Tel Aviv
    ("IT", 45.5, 9.2),    # Milan
    ("LU", 49.6, 6.1),    # Luxembourg
    ("NL", 52.4, 4.9),    # Amsterdam
    ("NY", 40.7, -74.0),  # New York (transatlantic PoP)
    ("PL", 52.2, 21.0),   # Warsaw
    ("PT", 38.7, -9.1),   # Lisbon
    ("SE", 59.3, 18.1),   # Stockholm
    ("SI", 46.1, 14.5),   # Ljubljana
    ("SK", 48.1, 17.1),   # Bratislava
    ("UK", 51.5, -0.1),   # London
    ("LT", 54.7, 25.3),   # Vilnius
]

#: Links as (u, v, capacity).  Capacities follow the 2005 GÉANT hierarchy:
#: a 10 Gb/s core ring plus 2.5 Gb/s and 155 Mb/s spurs.
GEANT_LINKS: List[Tuple[str, str, float]] = [
    # 10 Gb/s core
    ("UK", "NL", gbps(10)),
    ("UK", "FR", gbps(10)),
    ("NL", "DE", gbps(10)),
    ("DE", "FR", gbps(10)),
    ("DE", "CH", gbps(10)),
    ("FR", "CH", gbps(10)),
    ("CH", "IT", gbps(10)),
    ("DE", "AT", gbps(10)),
    ("IT", "AT", gbps(10)),
    ("DE", "PL", gbps(10)),
    ("DE", "CZ", gbps(10)),
    ("DE", "SE", gbps(10)),
    ("NL", "BE", gbps(10)),
    # 2.5 Gb/s
    ("FR", "BE", gbps(2.5)),
    ("FR", "ES", gbps(2.5)),
    ("ES", "PT", gbps(2.5)),
    ("UK", "PT", gbps(2.5)),
    ("ES", "IT", gbps(2.5)),
    ("IT", "GR", gbps(2.5)),
    ("AT", "GR", gbps(2.5)),
    ("AT", "HU", gbps(2.5)),
    ("AT", "CZ", gbps(2.5)),
    ("AT", "SI", gbps(2.5)),
    ("AT", "SK", gbps(2.5)),
    ("CZ", "SK", gbps(2.5)),
    ("HU", "SK", gbps(2.5)),
    ("HU", "HR", gbps(2.5)),
    ("SI", "HR", gbps(2.5)),
    ("PL", "CZ", gbps(2.5)),
    ("SE", "PL", gbps(2.5)),
    ("UK", "SE", gbps(2.5)),
    ("UK", "IE", gbps(2.5)),
    ("NL", "IE", gbps(2.5)),
    ("UK", "NY", gbps(2.5)),
    ("NY", "NL", gbps(2.5)),
    # 155 Mb/s spurs
    ("IT", "IL", mbps(155)),
    ("NL", "IL", mbps(155)),
    ("SE", "LT", mbps(155)),
    ("PL", "LT", mbps(155)),
    ("LU", "FR", mbps(155)),
    ("LU", "DE", mbps(155)),
]

#: Propagation speed in fibre, used to derive latencies from great-circle
#: distances (roughly two thirds of the speed of light).
_FIBRE_SPEED_KM_PER_S = 200_000.0


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres between two (lat, lon) points."""
    import math

    radius_km = 6_371.0
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    d_phi = math.radians(lat2 - lat1)
    d_lambda = math.radians(lon2 - lon1)
    a = (
        math.sin(d_phi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(d_lambda / 2.0) ** 2
    )
    return 2.0 * radius_km * math.asin(math.sqrt(a))


def build_geant(route_stretch: float = 1.4) -> Topology:
    """Build the synthetic GÉANT-like topology.

    Args:
        route_stretch: Multiplier applied to great-circle distances to account
            for real fibre routes being longer than the geodesic.

    Returns:
        A 23-node, 41-link :class:`~repro.topology.base.Topology` whose link
        latencies follow fibre distances and whose capacities follow the 2005
        GÉANT capacity hierarchy.
    """
    positions: Dict[str, Tuple[float, float]] = {
        name: (lat, lon) for name, lat, lon in GEANT_POPS
    }
    topo = Topology(name="geant")
    for name, _lat, _lon in GEANT_POPS:
        topo.add_node(name, kind="router", level="pop")
    for u, v, capacity in GEANT_LINKS:
        lat1, lon1 = positions[u]
        lat2, lon2 = positions[v]
        distance_km = _haversine_km(lat1, lon1, lat2, lon2) * route_stretch
        latency_s = max(distance_km / _FIBRE_SPEED_KM_PER_S, 1e-4)
        topo.add_link(u, v, capacity_bps=capacity, latency_s=latency_s, length_km=distance_km)
    return topo
