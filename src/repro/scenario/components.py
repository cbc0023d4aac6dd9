"""Registered scenario components: topologies, traffic, power and routing.

Importing this module populates the registry with every builder the repo
ships.  The per-kind contracts are:

* ``topology``: ``fn(**params) -> Topology``
* ``traffic``: ``fn(topology, **params) -> BuiltTraffic`` (or a bare
  :class:`~repro.traffic.replay.TrafficTrace` /
  :class:`~repro.traffic.matrix.TrafficMatrix`, normalised by
  :func:`as_built_traffic`)
* ``power``: ``fn(topology, **params) -> PowerModel``
* ``routing``: ``fn(topology, pairs, **params) -> RoutingTable``

Evaluation schemes live in :mod:`repro.scenario.schemes` (imported at the
bottom so one import wires up the whole registry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..exceptions import ConfigurationError, TrafficError
from ..power.alternative import AlternativeHardwarePowerModel
from ..power.cisco import CiscoRouterPowerModel
from ..power.commodity import CommoditySwitchPowerModel
from ..power.model import PowerModel
from ..routing.ospf import ospf_invcap_routing, ospf_latency_routing
from ..routing.paths import RoutingTable
from ..topology.base import Topology
from ..topology.example import build_example
from ..topology.fattree import build_fattree, hosts
from ..topology.generators import random_connected_topology, waxman_topology
from ..topology.geant import build_geant
from ..topology.pop_access import build_pop_access
from ..topology.rocketfuel import build_abovenet, build_genuity, build_rocketfuel
from ..traffic.geant_trace import generate_geant_trace
from ..traffic.google_trace import google_trace, google_volume_series
from ..traffic.gravity import gravity_matrix
from ..traffic.matrix import (
    Pair,
    TrafficMatrix,
    select_pairs_among_subset,
    select_random_pairs,
)
from ..traffic.aggregate import aggregate_matrix, aggregate_trace
from ..traffic.replay import TrafficTrace
from ..traffic.scaling import calibrate_max_load
from ..traffic.sinewave import (
    DEFAULT_PEAK_FLOW_BPS,
    fattree_sine_pairs,
    sine_wave_trace,
)
from .registry import register, resolve


@dataclass
class BuiltTraffic:
    """A traffic workload built against a concrete topology.

    Attributes:
        trace: The demand trace replayed by the engine (a single matrix is a
            one-interval trace).
        pairs: The origin-destination pairs carrying traffic — shared with
            plan construction so the installed paths cover exactly the
            workload's pairs.
        peak_matrix: The workload's peak-hour demand estimate, when the
            generator knows it more precisely than the element-wise trace
            maximum (e.g. the calibrated gravity peak).
    """

    trace: TrafficTrace
    pairs: List[Pair] = field(default_factory=list)
    peak_matrix: Optional[TrafficMatrix] = None

    def peak(self) -> TrafficMatrix:
        """The peak demand: the explicit estimate or the trace's element-wise max."""
        if self.peak_matrix is not None:
            return self.peak_matrix
        return self.trace.peak_matrix()


def as_built_traffic(built: Any, name: str) -> BuiltTraffic:
    """Normalise a traffic builder's return value into a :class:`BuiltTraffic`."""
    if isinstance(built, BuiltTraffic):
        if not built.pairs:
            built.pairs = _pairs_of(built.trace)
        return built
    if isinstance(built, TrafficMatrix):
        built = TrafficTrace([built], interval_s=900.0, name=built.name)
    if isinstance(built, TrafficTrace):
        return BuiltTraffic(trace=built, pairs=_pairs_of(built))
    raise ConfigurationError(
        f"traffic component {name!r} must build a TrafficTrace, a TrafficMatrix "
        f"or a BuiltTraffic usable by the scenario engine, got {type(built).__qualname__}"
    )


def _pairs_of(trace: TrafficTrace) -> List[Pair]:
    return sorted({pair for matrix in trace.matrices() for pair in matrix.pairs()})


def _as_pairs(pairs: Sequence[Sequence[str]]) -> List[Pair]:
    """JSON pair lists (``[["A", "B"], ...]``) as tuples."""
    return [(origin, destination) for origin, destination in pairs]


def select_pairs(
    topology: Topology,
    pairs: Optional[Sequence[Sequence[str]]] = None,
    num_pairs: Optional[int] = None,
    num_endpoints: Optional[int] = None,
    level: Optional[str] = None,
    min_degree: Optional[int] = None,
    pair_method: str = "subset",
    seed: int = 0,
) -> Optional[List[Pair]]:
    """The shared origin-destination selection used by traffic components.

    Candidates default to the topology's non-host routers, optionally
    restricted to one node level (``"metro"``, ``"edge"``, ...) and to nodes
    of at least *min_degree*.  ``pair_method="subset"`` draws pairs among a
    random endpoint subset (the paper's selection); ``"random"`` draws pairs
    among all candidates.  Explicit *pairs* win; ``None`` with no *num_pairs*
    means "let the generator use its own default pair set".
    """
    if pairs is not None:
        return _as_pairs(pairs)
    candidates = (
        topology.nodes_at_level(level) if level is not None else topology.routers()
    )
    if min_degree is not None:
        filtered = [node for node in candidates if topology.degree(node) >= min_degree]
        candidates = filtered if len(filtered) >= 2 else list(candidates)
    if num_pairs is None:
        return None
    if pair_method == "subset":
        if num_endpoints is None:
            raise ConfigurationError(
                "pair_method='subset' needs num_endpoints (the random endpoint pool)"
            )
        return select_pairs_among_subset(candidates, num_endpoints, num_pairs, seed=seed)
    if pair_method == "random":
        return select_random_pairs(candidates, num_pairs, seed=seed)
    raise ConfigurationError(
        f"pair_method must be 'subset' or 'random', got {pair_method!r}"
    )


# --------------------------------------------------------------------- #
# Topologies
# --------------------------------------------------------------------- #

register("topology", "fattree")(build_fattree)
register("topology", "geant")(build_geant)
register("topology", "abovenet")(build_abovenet)
register("topology", "genuity")(build_genuity)
register("topology", "rocketfuel")(build_rocketfuel)
register("topology", "pop-access")(build_pop_access)
register("topology", "example")(build_example)
register("topology", "random")(random_connected_topology)
register("topology", "waxman")(waxman_topology)


# --------------------------------------------------------------------- #
# Power models
# --------------------------------------------------------------------- #


@register("power", "cisco")
def _cisco_power(topology: Topology, **params: Any) -> PowerModel:
    """The Cisco 12000 "hardware of today" ISP router model."""
    return CiscoRouterPowerModel(**params)


@register("power", "commodity")
def _commodity_power(
    topology: Topology, ports_at_peak: Optional[int] = None, **params: Any
) -> PowerModel:
    """Commodity datacenter switch; ``ports_at_peak`` defaults to the
    topology's maximum switch degree (the fat-tree arity ``k``)."""
    if ports_at_peak is None:
        degrees = [topology.degree(name) for name in topology.routers()]
        ports_at_peak = max(degrees) if degrees else None
    if ports_at_peak is None:
        return CommoditySwitchPowerModel(**params)
    return CommoditySwitchPowerModel(ports_at_peak=ports_at_peak, **params)


@register("power", "alternative")
def _alternative_power(topology: Topology, **params: Any) -> PowerModel:
    """Energy-proportional chassis variant of the Cisco model."""
    return AlternativeHardwarePowerModel(**params)


# --------------------------------------------------------------------- #
# Routing tables
# --------------------------------------------------------------------- #


@register("routing", "ospf-invcap")
def _ospf_invcap(
    topology: Topology, pairs: Optional[Sequence[Pair]] = None, **params: Any
) -> RoutingTable:
    return ospf_invcap_routing(topology, pairs=pairs, **params)


@register("routing", "ospf-latency")
def _ospf_latency(
    topology: Topology, pairs: Optional[Sequence[Pair]] = None, **params: Any
) -> RoutingTable:
    return ospf_latency_routing(topology, pairs=pairs, **params)


# --------------------------------------------------------------------- #
# Traffic workloads
# --------------------------------------------------------------------- #


@register("traffic", "sinewave")
def _sinewave_traffic(
    topology: Topology,
    mode: str = "far",
    num_intervals: int = 11,
    period_intervals: Optional[int] = None,
    peak_flow_bps: Optional[float] = None,
    interval_s: float = 60.0,
    utilisation_floor: float = 0.05,
    seed: int = 0,
) -> BuiltTraffic:
    """ElasticTree-style sine-wave demand between fat-tree host pairs."""
    kwargs: Dict[str, Any] = {}
    if period_intervals is not None:
        kwargs["period_intervals"] = period_intervals
    if peak_flow_bps is not None:
        kwargs["peak_flow_bps"] = peak_flow_bps
    # One pair selection shared by the trace, the plan builders and the peak
    # estimate.
    pairs = fattree_sine_pairs(topology, mode, seed=seed)
    trace = sine_wave_trace(
        topology,
        mode=mode,
        num_intervals=num_intervals,
        interval_s=interval_s,
        utilisation_floor=utilisation_floor,
        seed=seed,
        pairs=pairs,
        **kwargs,
    )
    peak = TrafficMatrix.uniform(
        pairs,
        peak_flow_bps if peak_flow_bps is not None else DEFAULT_PEAK_FLOW_BPS,
        name=f"sine-{mode}-peak",
    )
    return BuiltTraffic(trace=trace, pairs=pairs, peak_matrix=peak)


@register("traffic", "gravity")
def _gravity_traffic(
    topology: Topology,
    total_traffic_bps: float = 1e9,
    pairs: Optional[Sequence[Sequence[str]]] = None,
    num_pairs: Optional[int] = None,
    num_endpoints: Optional[int] = None,
    level: Optional[str] = None,
    min_degree: Optional[int] = None,
    pair_method: str = "subset",
    calibrate: bool = False,
    levels: Optional[Sequence[float]] = None,
    interval_s: float = 900.0,
    name: str = "gravity",
    seed: int = 0,
) -> BuiltTraffic:
    """Gravity-model demand, optionally calibrated to the network's max load.

    ``calibrate=True`` scales the base matrix to the largest volume the full
    network can carry; *levels* (fractions of that peak, e.g. ``[0.1, 0.5,
    1.0]``) then yield one interval per load level — the paper's ``util-X``
    sweeps and stepped ns-2 demands.
    """
    selected = select_pairs(
        topology,
        pairs=pairs,
        num_pairs=num_pairs,
        num_endpoints=num_endpoints,
        level=level,
        min_degree=min_degree,
        pair_method=pair_method,
        seed=seed,
    )
    base = gravity_matrix(topology, total_traffic_bps, pairs=selected, name=name)
    peak = base
    if calibrate:
        peak = base.scaled(calibrate_max_load(topology, base), name=f"{name}-peak")
    if levels:
        matrices = [peak.scaled(fraction) for fraction in levels]
        # The workload's peak is what it actually offers: the largest level
        # (not the calibrated 100 % matrix, which the levels may stay below).
        workload_peak = peak.scaled(max(levels), name=f"{name}-peak")
    else:
        matrices = [peak]
        workload_peak = peak
    return BuiltTraffic(
        trace=TrafficTrace(matrices, interval_s=interval_s, name=name),
        pairs=selected if selected is not None else sorted(base.pairs()),
        peak_matrix=workload_peak,
    )


@register("traffic", "uniform")
def _uniform_traffic(
    topology: Topology,
    flow_bps: Optional[float] = None,
    total_traffic_bps: Optional[float] = None,
    pairs: Optional[Sequence[Sequence[str]]] = None,
    num_pairs: Optional[int] = None,
    num_endpoints: Optional[int] = None,
    level: Optional[str] = None,
    min_degree: Optional[int] = None,
    pair_method: str = "subset",
    interval_s: float = 900.0,
    name: str = "uniform",
    seed: int = 0,
) -> BuiltTraffic:
    """The same demand on every selected pair.

    Give either *flow_bps* (per pair) or *total_traffic_bps* (split evenly).
    """
    selected = select_pairs(
        topology,
        pairs=pairs,
        num_pairs=num_pairs,
        num_endpoints=num_endpoints,
        level=level,
        min_degree=min_degree,
        pair_method=pair_method,
        seed=seed,
    )
    if selected is None:
        raise ConfigurationError(
            "uniform traffic needs explicit pairs or num_pairs/num_endpoints"
        )
    if (flow_bps is None) == (total_traffic_bps is None):
        raise ConfigurationError(
            "uniform traffic needs exactly one of flow_bps or total_traffic_bps"
        )
    demand = (
        flow_bps
        if flow_bps is not None
        else total_traffic_bps / max(len(selected), 1)
    )
    matrix = TrafficMatrix.uniform(selected, demand, name=name)
    return BuiltTraffic(
        trace=TrafficTrace([matrix], interval_s=interval_s, name=name),
        pairs=list(selected),
        peak_matrix=matrix,
    )


@register("traffic", "matrix")
def _matrix_traffic(
    topology: Topology,
    demands: Sequence[Sequence[Any]] = (),
    interval_s: float = 900.0,
    name: str = "matrix",
) -> BuiltTraffic:
    """An explicit traffic matrix: ``demands`` is ``[[origin, dest, bps], ...]``,
    both endpoints topology nodes, every volume a finite non-negative number."""
    if not demands:
        raise TrafficError("an explicit matrix needs at least one [origin, dest, bps] row")
    parsed: Dict[Pair, float] = {}
    for row in demands:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise TrafficError(f"a matrix row is [origin, dest, bps], got {row!r}")
        origin, destination, bps = str(row[0]), str(row[1]), row[2]
        for endpoint in (origin, destination):
            if not topology.has_node(endpoint):
                raise TrafficError(f"matrix row {row!r}: {endpoint!r} is not a topology node")
        number = isinstance(bps, (int, float)) and not isinstance(bps, bool)
        if not (number and math.isfinite(bps) and bps >= 0):
            raise TrafficError(f"matrix row {row!r}: bps must be a finite non-negative number")
        parsed[(origin, destination)] = parsed.get((origin, destination), 0.0) + float(bps)
    matrix = TrafficMatrix(parsed, name=name)
    return BuiltTraffic(
        trace=TrafficTrace([matrix], interval_s=interval_s, name=name),
        pairs=sorted(parsed),
        peak_matrix=matrix,
    )


@register("traffic", "geant-trace")
def _geant_traffic(
    topology: Topology,
    num_days: int = 3,
    num_pairs: Optional[int] = 110,
    num_endpoints: Optional[int] = 16,
    pairs: Optional[Sequence[Sequence[str]]] = None,
    peak_total_bps: Optional[float] = None,
    subsample: int = 1,
    seed: int = 2005,
    **generator_params: Any,
) -> BuiltTraffic:
    """The synthetic GÉANT 15-minute trace over a random endpoint subset."""
    selected = select_pairs(
        topology,
        pairs=pairs,
        num_pairs=num_pairs,
        num_endpoints=num_endpoints,
        seed=seed,
    )
    kwargs: Dict[str, Any] = dict(generator_params)
    if peak_total_bps is not None:
        kwargs["peak_total_bps"] = peak_total_bps
    trace = generate_geant_trace(
        topology, num_days=num_days, pairs=selected, seed=seed, **kwargs
    )
    if subsample > 1:
        trace = trace.subsampled(subsample)
    return BuiltTraffic(trace=trace, pairs=list(selected or _pairs_of(trace)))


@register("traffic", "google-trace")
def _google_traffic(
    topology: Topology,
    num_days: int = 1,
    peak_total_bps: float = 12e9,
    pairs: Optional[Sequence[Sequence[str]]] = None,
    interval_s: Optional[float] = None,
    seed: int = 25,
    **generator_params: Any,
) -> BuiltTraffic:
    """The Google-like 5-minute volume trace split over fat-tree host pairs.

    Default pairs follow the Figure 2b workload: every host sends to the
    host half the (pod-sorted) ring away, so all demand crosses the core.
    """
    if pairs is not None:
        selected = _as_pairs(pairs)
    else:
        host_names = hosts(topology)
        if not host_names:
            raise TrafficError(
                "google-trace needs a topology with hosts (or explicit pairs)"
            )
        selected = [
            (
                host_names[index],
                host_names[(index + len(host_names) // 2) % len(host_names)],
            )
            for index in range(len(host_names))
        ]
    kwargs: Dict[str, Any] = dict(generator_params)
    if interval_s is not None:
        kwargs["interval_s"] = interval_s
    trace = google_trace(
        selected, num_days=num_days, peak_total_bps=peak_total_bps, seed=seed, **kwargs
    )
    return BuiltTraffic(trace=trace, pairs=list(selected))


@register("traffic", "google-volume")
def _google_volume(topology: Optional[Topology] = None, **params: Any) -> List[float]:
    """The raw aggregate 5-minute volume series (Figure 1a's input).

    Returns a plain series, not a trace: use it via ``TrafficSpec.build``
    for volume-level analyses, not inside ``run_scenario``.
    """
    return list(google_volume_series(**params))


@register("traffic", "aggregate")
def _aggregate_traffic(
    topology: Topology,
    inner: Optional[Dict[str, Any]] = None,
    level: str = "aggregation",
) -> BuiltTraffic:
    """Any registered workload coarsened to per-pod / per-PoP aggregates.

    Wraps an *inner* traffic section (``{"name": ..., "params": {...}}``,
    the same shape as a spec's ``traffic`` section) and maps every endpoint
    of every matrix to its nearest ancestor at *level* — ``"aggregation"``
    groups fat-tree hosts per pod, ``"edge"`` per edge switch,
    ``"backbone"`` groups PoP-access metros per backbone attachment.  Total
    demand is conserved (intra-aggregate pairs keep their original
    granularity); the allocation-level exact-equivalence contract is in
    :mod:`repro.simulator.aggregate`.
    """
    if not inner or "name" not in inner:
        raise ConfigurationError(
            "aggregate traffic needs an inner section: "
            '{"name": <traffic component>, "params": {...}}'
        )
    builder = resolve("traffic", inner["name"])
    built = as_built_traffic(
        builder(topology, **dict(inner.get("params") or {})), inner["name"]
    )
    trace = aggregate_trace(topology, built.trace, level)
    peak = None
    if built.peak_matrix is not None:
        peak = aggregate_matrix(topology, built.peak_matrix, level)
    return BuiltTraffic(
        trace=trace, pairs=_pairs_of(trace), peak_matrix=peak
    )


# Schemes register themselves on import; keep last so one import of this
# module wires up the complete registry.
from . import schemes  # noqa: E402,F401  (registration side effect)
