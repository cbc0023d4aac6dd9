"""Per-layer probes: each module's public functions, timed from outside.

A layer is a module of ``src/repro``.  Every probe calls public functions
of one module on the inputs of the workload that exercises it, inside a
harness-side span; nothing is recorded inside ``src/``.  The probes run in
three groups, each in its own spawned child (``layer_child``); the service
layer is read off a traced ``service_mixed`` window instead.

A probe whose target no longer exists (``ImportError`` /
``AttributeError``), or that needs the output of one that does not, yields
``None`` with a note: deleting a layer must not break the measurement.
"""

from __future__ import annotations

import os
import statistics
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

from measure import SpeedReference, percentile, supported_percentile
from spans import SpanRecorder
from workloads import SERVICE_GRID_POINTS

#: Layer groups probed in their own child process.
GROUPS = ("campaign", "timeline", "simulator")

#: Every per-layer metric and its unit (the names BENCHMARK.json lists).
PER_LAYER_UNITS = {
    "traffic.calibrate_ms_p50": "ms",
    "traffic.calibrate_total_s": "s",
    "traffic.memo_hit_share.cold": "ratio",
    "traffic.memo_hit_share.warm": "ratio",
    "routing.mcf_feasible_ms_p50": "ms",
    "core.response_plan_ms": "ms",
    "scenario.build_ms_p50": "ms",
    "scenario.run_ms_p50": "ms",
    "experiments.point_ms_p50": "ms",
    "campaign.expand_ms": "ms",
    "campaign.record_chunk_ms": "ms",
    "campaign.dump_ms": "ms",
    "campaign.drain_glue_s": "s",
    "campaign.status_read_ms_p50": "ms",
    "core.response_replay_s": "s",
    "optim.greente_replay_s": "s",
    "optim.elastictree_replay_s": "s",
    "routing.ecmp_replay_s": "s",
    "routing.ospf_replay_s": "s",
    "optim.elastictree_interval_ms_p50": "ms",
    "scenario.timeline_glue_s": "s",
    "simulator.table_build_s": "s",
    "simulator.grouped_step_ms_p50": "ms",
    "simulator.grouped_flows_per_s": "1/s",
    "simulator.failed_link_step_ms_p50": "ms",
    "simulator.perflow_step_ms_p50": "ms",
    "service.read_ms_p50.status": "ms",
    "service.read_ms_p50.points": "ms",
    "service.read_ms_p50.report": "ms",
    "service.read_ms_p50.campaigns": "ms",
    "service.read_ms_p90": "ms",
    "service.read_ms_p99": "ms",
    "service.http_overhead_ms": "ms",
    "service.replay_first_record_ms_p50": "ms",
    "service.replay_total_ms_p50": "ms",
    "service.drain_points_per_s": "1/s",
    "obs.trace_overhead_share": "ratio",
    "obs.window_call_ms_p50": "ms",
    "obs.speed_factor": "ratio",
}

#: Which layer of the timeline replay each scheme belongs to.
REPLAY_LAYERS = {
    "response": "core.response_replay_s",
    "greente": "optim.greente_replay_s",
    "elastictree": "optim.elastictree_replay_s",
    "ecmp": "routing.ecmp_replay_s",
    "ospf": "routing.ospf_replay_s",
}


class LayerUnavailable(Exception):
    """A probe needs the output of a probe that could not run."""


class Probes:
    """Spans, speed-normalised durations and results of one layer group."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorder = SpanRecorder()
        self.reference = SpeedReference()
        self.reference.start()
        self.durations: Dict[str, List[float]] = {}
        self.metrics: Dict[str, Optional[float]] = {}
        self.notes: Dict[str, str] = {}
        self.state: Dict[str, Any] = {}

    def timed(self, name: str, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call *function* under a span called *name*.

        The span keeps the raw clock; ``durations[name]`` gets the duration
        divided by the speed factor sampled around the call.
        """
        with self.recorder.span(name) as span:
            result = function(*args, **kwargs)
        factor = self.reference.local_factor(span.duration_s)
        self.durations.setdefault(name, []).append(span.duration_s / factor)
        return result

    def need(self, key: str) -> Any:
        if key not in self.state:
            raise LayerUnavailable(f"needs {key!r} from a probe that did not run")
        return self.state[key]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.durations[name]) * 1e3

    def total_s(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def run(
        self, names: Sequence[str], probe: Callable[["Probes"], Dict[str, Optional[float]]]
    ) -> None:
        """Run one probe; on a missing target report *names* as ``None``."""
        try:
            self.metrics.update(probe(self))
        except (ImportError, AttributeError, LayerUnavailable) as error:
            for name in names:
                self.metrics[name] = None
                self.notes[name] = f"{type(error).__name__}: {error}"


# --------------------------------------------------------------------- #
# campaign group: traffic / routing / core / scenario / experiments / campaign
# --------------------------------------------------------------------- #


def _expand(probes: Probes) -> Dict[str, float]:
    from repro.campaign import CampaignSpec

    from workloads import geant_grid

    spec_dict = geant_grid(probes.seed)
    for _ in range(3):
        spec = probes.timed("campaign.expand", CampaignSpec.from_dict, spec_dict)
        points = probes.timed("campaign.expand", spec.expand)
    probes.state.update(spec_dict=spec_dict, spec=spec, points=points)
    # from_dict + expand are two spans per repetition.
    return {"campaign.expand_ms": probes.total_s("campaign.expand") / 3.0 * 1e3}


def _calibrate(probes: Probes) -> Dict[str, float]:
    from repro.traffic import calibrate_max_load, clear_calibration_cache

    inputs: Dict[str, Any] = {}
    for point in probes.need("points"):
        traffic = point.spec.traffic
        key = repr(sorted(traffic.kwargs().items()))
        if key not in inputs:
            topology = point.spec.topology.build()
            # The base matrix the component would calibrate, uncalibrated.
            built = traffic.build(topology, calibrate=False, levels=None)
            inputs[key] = (topology, built.peak(), list(built.pairs))
    clear_calibration_cache()
    scales = [
        probes.timed("traffic.calibrate_max_load", calibrate_max_load, topology, base)
        for topology, base, _pairs in inputs.values()
    ]
    probes.state.update(calibration_inputs=list(inputs.values()), scales=scales)
    return {
        "traffic.calibrate_ms_p50": probes.median_ms("traffic.calibrate_max_load"),
        "traffic.calibrate_total_s": probes.total_s("traffic.calibrate_max_load"),
    }


def _feasible(probes: Probes) -> Dict[str, float]:
    from repro.routing.mcf import is_demand_feasible

    for (topology, base, _pairs), scale in zip(
        probes.need("calibration_inputs"), probes.need("scales"), strict=True
    ):
        probes.timed("routing.is_demand_feasible", is_demand_feasible, topology, base.scaled(scale))
    return {"routing.mcf_feasible_ms_p50": probes.median_ms("routing.is_demand_feasible")}


def _response_plan(probes: Probes) -> Dict[str, float]:
    from repro.core.response import ResponseConfig, build_response_plan
    from repro.power import CiscoRouterPowerModel

    config = ResponseConfig(num_paths=3, k=3)
    seen = set()
    for topology, _base, pairs in probes.need("calibration_inputs"):
        if tuple(pairs) in seen:
            continue
        seen.add(tuple(pairs))
        probes.timed(
            "core.build_response_plan",
            build_response_plan,
            topology,
            CiscoRouterPowerModel(),
            pairs=pairs,
            config=config,
        )
    return {"core.response_plan_ms": probes.median_ms("core.build_response_plan")}


def _scenario_points(probes: Probes) -> Dict[str, float]:
    from repro.scenario import build_scenario, run_built_scenario

    probes.need("scales")  # the calibration memo must be warm
    for point in probes.need("points"):
        built = probes.timed("scenario.build_scenario", build_scenario, point.spec)
        probes.timed("scenario.run_built_scenario", run_built_scenario, built)
    return {
        "scenario.build_ms_p50": probes.median_ms("scenario.build_scenario"),
        "scenario.run_ms_p50": probes.median_ms("scenario.run_built_scenario"),
    }


def _execute_points(probes: Probes) -> Dict[str, float]:
    from repro.experiments.runner import execute_point_outcome

    probes.need("scales")
    probes.state["outcomes"] = [
        probes.timed(
            "experiments.execute_point_outcome", execute_point_outcome, point.spec.sweep_point()
        )
        for point in probes.need("points")
    ]
    return {"experiments.point_ms_p50": probes.median_ms("experiments.execute_point_outcome")}


def _store(probes: Probes) -> Dict[str, float]:
    from repro.campaign import CampaignStore, PointRecord

    records = [
        PointRecord(point=point, result=outcome.value, elapsed_s=outcome.elapsed_s)
        for point, outcome in zip(probes.need("points"), probes.need("outcomes"), strict=True)
    ]
    path = os.path.join(probes.workdir, "layers.sqlite")
    with CampaignStore(path, read_only=False) as store:
        campaign_id = store.register_campaign(probes.need("spec"), probes.need("points"))
        probes.timed("campaign.record_chunk", store.record_chunk, campaign_id, records)
        probes.timed("campaign.canonical_dump", store.canonical_dump, campaign_id)

    def status_read() -> None:
        with CampaignStore(path, read_only=True) as reader:
            reader.status_counts(campaign_id)

    for _ in range(30):
        probes.timed("campaign.status_read", status_read)
    return {
        "campaign.record_chunk_ms": probes.median_ms("campaign.record_chunk"),
        "campaign.dump_ms": probes.median_ms("campaign.canonical_dump"),
        "campaign.status_read_ms_p50": probes.median_ms("campaign.status_read"),
    }


def _drains(probes: Probes) -> Dict[str, Optional[float]]:
    from repro.campaign import run_campaign
    from repro.traffic import calibration_cache_stats, clear_calibration_cache

    spec_dict = probes.need("spec_dict")

    def drain(label: str, index: int) -> float:
        before = calibration_cache_stats()
        path = os.path.join(probes.workdir, f"drain-{label}-{index}.sqlite")
        probes.timed(f"campaign.run_campaign.{label}", run_campaign, spec_dict, store_path=path)
        after = calibration_cache_stats()
        hits = after["hits"] - before["hits"]
        return hits / (hits + after["misses"] - before["misses"])

    clear_calibration_cache()
    cold_share = drain("cold", 0)
    warm_shares = [drain("warm", index) for index in range(3)]
    warm_s = statistics.median(probes.durations["campaign.run_campaign.warm"])
    parts = [
        probes.total_s(name)
        for name in (
            "scenario.build_scenario",
            "scenario.run_built_scenario",
            "campaign.record_chunk",
        )
    ]
    if not all(parts):
        probes.notes["campaign.drain_glue_s"] = "needs the scenario and store probes"
    return {
        "traffic.memo_hit_share.cold": cold_share,
        "traffic.memo_hit_share.warm": warm_shares[0],
        "campaign.drain_glue_s": warm_s - sum(parts) if all(parts) else None,
    }


def campaign_group(probes: Probes) -> None:
    probes.run(("campaign.expand_ms",), _expand)
    probes.run(("traffic.calibrate_ms_p50", "traffic.calibrate_total_s"), _calibrate)
    probes.run(("routing.mcf_feasible_ms_p50",), _feasible)
    probes.run(("core.response_plan_ms",), _response_plan)
    probes.run(("scenario.build_ms_p50", "scenario.run_ms_p50"), _scenario_points)
    probes.run(("experiments.point_ms_p50",), _execute_points)
    probes.run(
        ("campaign.record_chunk_ms", "campaign.dump_ms", "campaign.status_read_ms_p50"), _store
    )
    probes.run(
        ("traffic.memo_hit_share.cold", "traffic.memo_hit_share.warm", "campaign.drain_glue_s"),
        _drains,
    )


# --------------------------------------------------------------------- #
# timeline group: one replay per scheme, then all five together
# --------------------------------------------------------------------- #


def _replays(probes: Probes) -> Dict[str, float]:
    from repro.scenario import build_scenario, run_built_scenario

    from workloads import replay_scenario

    spec = replay_scenario(probes.seed)
    metrics: Dict[str, float] = {}
    solo_total = 0.0
    for scheme in spec["schemes"]:
        label = scheme if isinstance(scheme, str) else scheme["name"]
        built = build_scenario(dict(spec, schemes=[scheme], name=f"{spec['name']}-{label}"))
        result = probes.timed(f"replay.{label}", run_built_scenario, built)
        metrics[REPLAY_LAYERS[label]] = probes.total_s(f"replay.{label}")
        solo_total += metrics[REPLAY_LAYERS[label]]
        if label == "elastictree":
            steps = result.compute_seconds[label]
            metrics["optim.elastictree_interval_ms_p50"] = statistics.median(steps) * 1e3
    probes.timed("replay.all", run_built_scenario, build_scenario(spec))
    metrics["scenario.timeline_glue_s"] = probes.total_s("replay.all") - solo_total
    return metrics


def timeline_group(probes: Probes) -> None:
    probes.run(
        (*REPLAY_LAYERS.values(), "optim.elastictree_interval_ms_p50", "scenario.timeline_glue_s"),
        _replays,
    )


# --------------------------------------------------------------------- #
# simulator group
# --------------------------------------------------------------------- #


def _grouped(probes: Probes) -> Dict[str, float]:
    from repro.simulator import AggregatedFlows, SimulatedNetwork, allocate_aggregated

    from workloads import (
        ENGINE_SHAPE,
        aggregation_core_link,
        build_engine_population,
        engine_inputs,
    )

    classes = engine_inputs(probes.seed)["classes_bps"]

    def build() -> Any:
        topology, paths, flow_group, demands = build_engine_population(*ENGINE_SHAPE, classes)
        table = AggregatedFlows.from_arrays(paths, flow_group, demands)
        return SimulatedNetwork(topology), table, paths, demands

    network, table, paths, demands = probes.timed("simulator.table_build", build)
    allocate_aggregated(network, table, demands_bps=demands)  # warm the usable-path cache
    for _ in range(5):
        probes.timed("simulator.grouped_step", allocate_aggregated, network, table, demands)
    link = aggregation_core_link(paths)
    network.fail_link(*link)
    allocate_aggregated(network, table, demands_bps=demands)
    for _ in range(5):
        probes.timed("simulator.failed_link_step", allocate_aggregated, network, table, demands)
    network.repair_link(*link)
    step_ms = probes.median_ms("simulator.grouped_step")
    return {
        "simulator.table_build_s": probes.total_s("simulator.table_build"),
        "simulator.grouped_step_ms_p50": step_ms,
        "simulator.grouped_flows_per_s": demands.size / (step_ms / 1e3),
        "simulator.failed_link_step_ms_p50": probes.median_ms("simulator.failed_link_step"),
    }


def _per_flow(probes: Probes) -> Dict[str, float]:
    from repro.simulator import SimulatedNetwork

    from workloads import (
        ENGINE_SHAPE,
        build_engine_population,
        engine_inputs,
        per_flow_objects,
    )

    k, pairs, _members = ENGINE_SHAPE
    classes = engine_inputs(probes.seed)["classes_bps"]
    topology, paths, flow_group, demands = build_engine_population(k, pairs, 16, classes)
    flows = per_flow_objects(paths, flow_group, demands)
    network = SimulatedNetwork(topology)
    network.allocate_rates(flows, now_s=0.0)  # compile the paths once
    for _ in range(3):
        probes.timed("simulator.allocate_rates", network.allocate_rates, flows, now_s=0.0)
    return {"simulator.perflow_step_ms_p50": probes.median_ms("simulator.allocate_rates")}


def simulator_group(probes: Probes) -> None:
    probes.run(
        (
            "simulator.table_build_s",
            "simulator.grouped_step_ms_p50",
            "simulator.grouped_flows_per_s",
            "simulator.failed_link_step_ms_p50",
        ),
        _grouped,
    )
    probes.run(("simulator.perflow_step_ms_p50",), _per_flow)


_GROUP_FUNCTIONS = {
    "campaign": campaign_group,
    "timeline": timeline_group,
    "simulator": simulator_group,
}


def layer_child(group: str, seed: int, work_root: str, _spawned_at: float) -> Dict[str, Any]:
    """Run one layer group in this (fresh) process."""
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root, prefix=f"layers-{group}-") as workdir:
        probes = Probes(seed, workdir)
        _GROUP_FUNCTIONS[group](probes)
        return {
            "metrics": probes.metrics,
            "notes": probes.notes,
            "spans": probes.recorder.to_dicts(),
        }


# --------------------------------------------------------------------- #
# Metrics read off traced windows
# --------------------------------------------------------------------- #


def window_metrics(observed: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """The traced workload window: tracing overhead and its own median."""
    traced, untraced = observed["traced_calls_s"], observed["untraced_calls_s"]
    overhead = None
    if traced and untraced:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {
        "obs.trace_overhead_share": overhead,
        "obs.window_call_ms_p50": statistics.median(observed["calls_s"]) * 1e3,
        "obs.speed_factor": observed["speed_factor"],
    }


def service_metrics(observed: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """The service layer, from a traced ``service_mixed`` window's clients."""
    reads, writer = observed["reads"], observed["writer"]
    metrics: Dict[str, Optional[float]] = {}
    for route in sorted({route for route, _latency in reads}):
        latencies = [latency for name, latency in reads if name == route]
        metrics[f"service.read_ms_p50.{route}"] = statistics.median(latencies) * 1e3
    latencies = [latency for _route, latency in reads]
    highest = supported_percentile(len(latencies))
    for rank in (90.0, 99.0):
        metrics[f"service.read_ms_p{rank:.0f}"] = (
            percentile(latencies, rank) * 1e3 if rank <= highest else None
        )

    def median_ms(samples: List[float]) -> Optional[float]:
        return statistics.median(samples) * 1e3 if samples else None

    metrics["service.replay_first_record_ms_p50"] = median_ms(writer["replay_first_s"])
    metrics["service.replay_total_ms_p50"] = median_ms(writer["replay_total_s"])
    metrics["service.drain_points_per_s"] = (
        writer["grids"] * SERVICE_GRID_POINTS / observed["busy_s"]
    )
    return metrics
