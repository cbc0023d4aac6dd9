"""The five workloads: seeded inputs, set-up, one call, output checks.

Input generators at the top are pure functions of ``--seed`` (standard
library only, so the harness tests import them without loading the
program).  The seed moves **demand volumes**, never the combinatorial
structure (which pairs, which paths, how many grid points): LP sizes and
filling depth — hence the work per call — follow the structure, and a
workload whose work changed with the seed could not be compared across
seeds.  Every seed still yields different config hashes, calibration memo
keys, rate vectors and result digests, so nothing can be carried from one
seed to the next.

Everything under ``repro`` is imported inside ``setup`` so that imports are
charged to ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import (
    SpeedReference,
    cpu_seconds,
    digest,
    process_cpu_seconds,
    process_peak_rss_mb,
)

#: How far the seed moves a demand volume (fraction, either way).
VOLUME_JITTER = 0.03

RESPONSE = {"name": "response", "params": {"num_paths": 3, "k": 3}}


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _jittered(rng: random.Random, value: float, width: float = VOLUME_JITTER) -> float:
    return float(round(value * (1.0 + rng.uniform(-width, width))))


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #


def geant_grid(seed: int) -> Dict[str, Any]:
    """The 12-point GÉANT calibrated-gravity grid of both campaign workloads.

    3 pair-selection seeds x 2 demand totals x 2 SLOs, under response +
    greente + ecmp.  The two totals carry the seed, so the 6 distinct
    calibrations (SLO twins share one) are new searches for every seed.
    """
    rng = _rng(seed, "geant-grid")
    return {
        "name": f"bench-geant-grid-{seed}",
        "base": {
            "topology": "geant",
            "traffic": {
                "name": "gravity",
                "params": {
                    "num_pairs": 12,
                    "num_endpoints": 8,
                    "calibrate": True,
                    "levels": [0.25, 0.5, 1.0],
                },
            },
            "power": "cisco",
            "schemes": [RESPONSE, {"name": "greente", "params": {}}, "ecmp"],
        },
        "axes": {
            "seed": [0, 1, 2],
            "set": {
                "traffic.total_traffic_bps": [_jittered(rng, 1e9), _jittered(rng, 2e9)],
                "scenario.utilisation_threshold": [0.85, 0.9],
            },
        },
    }


def uniform_grid(seed: int, generation: int = 0) -> Dict[str, Any]:
    """A cheap 24-point uniform-traffic grid for ``service_mixed``.

    Generation 0 is drained into the store during set-up and read by the
    reader; the writer submits generations 1, 2, ... — same structure, new
    volumes, so every submission is a grid the store has never seen.
    """
    rng = _rng(seed, f"uniform-grid-{generation}")
    return {
        "name": f"bench-service-grid-{seed}-{generation}",
        "base": {
            "topology": "geant",
            "traffic": {
                "name": "uniform",
                "params": {"num_pairs": 6, "num_endpoints": 5, "flow_bps": 1e8, "seed": 0},
            },
            "power": "cisco",
            "schemes": [{"name": "response", "params": {"num_paths": 2, "k": 2}}, "ecmp"],
        },
        "axes": {
            "seed": [0, 1, 2, 3, 4, 5],
            "set": {
                "traffic.flow_bps": [_jittered(rng, 1e8), _jittered(rng, 1.5e8)],
                "scenario.utilisation_threshold": [0.85, 0.9],
            },
        },
    }


def replay_scenario(seed: int) -> Dict[str, Any]:
    """``timeline_replay``: one GÉANT day with a failure, a repair and a surge."""
    rng = _rng(seed, "timeline")
    return {
        "name": f"bench-timeline-{seed}",
        "topology": "geant",
        "traffic": {
            "name": "geant-trace",
            "params": {
                "num_days": 1,
                "num_pairs": 16,
                "num_endpoints": 8,
                "subsample": 6,
                "seed": 14,
                "peak_total_bps": _jittered(rng, 18e9),
            },
        },
        "power": "cisco",
        "schemes": [RESPONSE, "greente", "elastictree", "ecmp", "ospf"],
        "events": [
            {
                "name": "link-failure",
                "params": {"time_s": 21600.0, "link": ["DE", "FR"], "repair_s": 43200.0},
            },
            {"name": "traffic-surge", "params": {"start_s": 50400.0, "factor": 1.5}},
        ],
        "utilisation_threshold": 0.9,
    }


def service_replay_scenario(seed: int) -> Dict[str, Any]:
    """The spec ``service_mixed``'s writer streams through ``/scenarios/replay``."""
    rng = _rng(seed, "service-replay")
    return {
        "name": f"bench-service-replay-{seed}",
        "topology": "geant",
        "traffic": {
            "name": "gravity",
            "params": {
                "num_pairs": 8,
                "num_endpoints": 5,
                "seed": 1,
                "calibrate": True,
                "levels": [0.25, 0.5, 1.0],
                "total_traffic_bps": _jittered(rng, 1e9),
            },
        },
        "power": "cisco",
        "schemes": [{"name": "response", "params": {"num_paths": 2, "k": 2}}, "ecmp"],
        "events": [
            {
                "name": "link-failure",
                "params": {"time_s": 900.0, "link": ["DE", "FR"], "repair_s": 1800.0},
            }
        ],
        "utilisation_threshold": 0.9,
    }


#: ``engine_step`` shape: k=16 fat-tree, 1 280 host-pair groups x 160 members.
ENGINE_SHAPE = (16, 1280, 160)

#: Steps per load cycle; the link is failed for the second half of each.
ENGINE_CYCLE = 8


def engine_inputs(seed: int) -> Dict[str, Any]:
    """Demand classes (seeded) and the fixed 8-entry sine level table.

    Four shared demand classes keep the filling depth at tens of
    iterations (flows of one class freeze together); the seed moves each
    class by up to 5 %, which moves every rate but not the depth.
    """
    rng = _rng(seed, "engine")
    return {
        "classes_bps": [_jittered(rng, base, 0.05) for base in (0.5e6, 2e6, 8e6, 32e6)],
        "levels": [
            round(1.0 + 0.5 * math.sin(2.0 * math.pi * slot / ENGINE_CYCLE), 6)
            for slot in range(ENGINE_CYCLE)
        ],
    }


def build_engine_population(k: int, pairs: int, members: int, classes_bps: Sequence[float]):
    """Fat-tree, one routed path per host-pair group, and per-flow arrays.

    The host pairs and their paths come from a fixed structure seed (paths
    are written from the fat-tree naming scheme, not searched).  Demand
    classes cycle through each group's members.
    """
    import numpy as np

    from repro.routing import Path
    from repro.topology.fattree import (
        aggregation_switch_name,
        build_fattree,
        core_switch_name,
        edge_switch_name,
        host_name,
    )

    half = k // 2
    topology = build_fattree(k)
    rng = random.Random(7)

    def rand_host() -> Tuple[int, int, int]:
        return (rng.randrange(k), rng.randrange(half), rng.randrange(half))

    def path_between(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> Any:
        (p1, e1, h1), (p2, e2, h2) = a, b
        hops = [host_name(p1, e1, h1), edge_switch_name(p1, e1)]
        if (p1, e1) != (p2, e2):
            agg = rng.randrange(half)
            hops.append(aggregation_switch_name(p1, agg))
            if p1 != p2:
                hops.append(core_switch_name(agg * half + rng.randrange(half)))
                hops.append(aggregation_switch_name(p2, agg))
            hops.append(edge_switch_name(p2, e2))
        hops.append(host_name(p2, e2, h2))
        return Path.of(hops)

    paths = []
    for _ in range(pairs):
        a, b = rand_host(), rand_host()
        while b == a:
            b = rand_host()
        paths.append(path_between(a, b))
    flow_group = np.repeat(np.arange(pairs, dtype=np.int64), members)
    classes = np.asarray(classes_bps, dtype=np.float64)
    demands = classes[np.arange(pairs * members) % len(classes)]
    return topology, tuple(paths), flow_group, demands


def per_flow_objects(paths: Sequence[Any], flow_group: Any, demands: Any) -> List[Any]:
    """The same population as one ``Flow`` object per flow (the per-flow engine's input)."""
    from repro.simulator import Flow, constant_demand

    return [
        Flow(
            f"f{index}",
            paths[group].nodes[0],
            paths[group].nodes[-1],
            constant_demand(float(demands[index])),
            path=paths[group],
        )
        for index, group in enumerate(flow_group)
    ]


def aggregation_core_link(paths: Sequence[Any]) -> Tuple[str, str]:
    """The aggregation-core link of the first inter-pod path (the one failed)."""
    for path in paths:
        if len(path.nodes) == 7:
            return path.nodes[2], path.nodes[3]
    raise RuntimeError("no inter-pod path in the population")


# --------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------- #


class Workload:
    """One workload: ``setup`` once, then ``prepare``/``call``/``verify`` per call.

    Only ``call`` is timed.  ``verify`` returns how many of the call's
    operations failed; ``operations`` is how many it attempted.
    """

    name = ""
    unit = ""
    units_per_call = 1
    operations = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.result_digest: Optional[str] = None
        self.failures: List[str] = []

    def setup(self) -> int:
        """Imports, inputs and warm-up; returns failed set-up checks."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed state change before a call."""

    def call(self) -> None:
        raise NotImplementedError

    def verify(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` opened."""

    def _note_failure(self, message: str) -> None:
        if len(self.failures) < 10:
            self.failures.append(message)

    def _check_digest(self, value: str) -> bool:
        """First call fixes the reference; later calls must reproduce it."""
        if self.result_digest is None:
            self.result_digest = value
        if value != self.result_digest:
            self._note_failure(f"digest {value[:12]} differs from the first call's")
        return value == self.result_digest


class CampaignDrain(Workload):
    """One default ``run_campaign`` drain of the GÉANT grid into a fresh store."""

    unit = "grid point"

    def __init__(self, seed: int, workdir: str, cold: bool) -> None:
        super().__init__(seed, workdir)
        self.name = "campaign_cold" if cold else "campaign_warm"
        self.cold = cold
        self._drains = 0

    def setup(self) -> int:
        from repro.campaign import CampaignSpec, CampaignStore, run_campaign
        from repro.traffic import clear_calibration_cache

        self._run_campaign = run_campaign
        self._store_class = CampaignStore
        self._clear = clear_calibration_cache
        self.spec = geant_grid(self.seed)
        self.units_per_call = self.operations = CampaignSpec.from_dict(self.spec).grid_size()
        if self.cold:
            # One point loads the LP solver and SQLite; the memo it leaves
            # is cleared before every timed call anyway.
            self._store = os.path.join(self.workdir, "warmup.sqlite")
            run_campaign(self.spec, store_path=self._store, max_points=1)
            self._remove_store()
            return 0
        # The warm-up drain is the cold one that fills the calibration memo;
        # its dump is the reference, so cold != warm fails every warm call.
        self.call()
        return self.verify()

    def prepare(self) -> None:
        if self.cold:
            self._clear()

    def call(self) -> None:
        self._drains += 1
        self._store = os.path.join(self.workdir, f"drain-{self._drains}.sqlite")
        self._summary = self._run_campaign(self.spec, store_path=self._store)

    def verify(self) -> int:
        summary = self._summary
        with self._store_class(self._store, read_only=True) as store:
            dump = store.canonical_dump(summary.campaign_id)
        self._remove_store()
        if not self._check_digest(digest(dump)):
            return self.operations
        for error in summary.errors:
            self._note_failure(error.strip().splitlines()[-1])
        return summary.failed + summary.remaining

    def _remove_store(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(self._store + suffix):
                os.remove(self._store + suffix)


class TimelineReplay(Workload):
    """One ``run_scenario`` of the eventful GÉANT day under five schemes."""

    name = "timeline_replay"
    unit = "scheme-interval"

    def setup(self) -> int:
        from repro.campaign import canonical_result_dict
        from repro.scenario.engine import run_scenario

        self._run_scenario = run_scenario
        self._canonical = canonical_result_dict
        self.spec = replay_scenario(self.seed)
        self.call()
        self.units_per_call = len(self._result.times_s) * len(self._result.labels())
        return self.verify()

    def call(self) -> None:
        self._result = self._run_scenario(self.spec)

    def verify(self) -> int:
        result = self._result
        same = self._check_digest(digest(self._canonical(result.to_dict())))
        saves = result.mean_power_percent("response") <= result.mean_power_percent("ospf")
        if not saves:
            self._note_failure("mean REsPoNse power exceeds mean OSPF power")
        return 0 if same and saves else 1


class EngineStep(Workload):
    """One ``allocate_aggregated`` step over 204 800 flows on a k=16 fat-tree."""

    name = "engine_step"
    unit = "step"

    def setup(self) -> int:
        from repro.simulator import AggregatedFlows, SimulatedNetwork, allocate_aggregated

        self._allocate = allocate_aggregated
        inputs = engine_inputs(self.seed)
        self.levels = inputs["levels"]
        failed = 0
        if not self._cross_check(inputs["classes_bps"]):
            self._note_failure("aggregated rates differ from per-flow allocate_rates (k=8)")
            failed = 1

        topology, paths, flow_group, self.base = build_engine_population(
            *ENGINE_SHAPE, inputs["classes_bps"]
        )
        self.network = SimulatedNetwork(topology)
        self.table = AggregatedFlows.from_arrays(paths, flow_group, self.base)
        self.link = aggregation_core_link(paths)
        self.step = 0
        self._slot_digests: List[Optional[str]] = [None] * ENGINE_CYCLE
        # The first cycle is the warm-up and fixes each slot's reference.
        for _ in range(ENGINE_CYCLE):
            self.prepare()
            self.call()
            failed += self.verify()
        self.result_digest = digest(self._slot_digests)
        return failed

    def _cross_check(self, classes_bps: Sequence[float]) -> bool:
        """Aggregated == per-flow ``allocate_rates``, bit for bit (k=8, 2 048 flows)."""
        import numpy as np

        from repro.simulator import AggregatedFlows, SimulatedNetwork, allocate_aggregated

        topology, paths, flow_group, demands = build_engine_population(8, 128, 16, classes_bps)
        table = AggregatedFlows.from_arrays(paths, flow_group, demands)
        grouped = allocate_aggregated(SimulatedNetwork(topology), table)
        flows = per_flow_objects(paths, flow_group, demands)
        SimulatedNetwork(topology).allocate_rates(flows, now_s=0.0)
        per_flow = np.array([flow.rate_bps for flow in flows])
        return bool(np.array_equal(grouped, per_flow))

    def prepare(self) -> None:
        slot = self.step % ENGINE_CYCLE
        if slot == ENGINE_CYCLE // 2:
            self.network.fail_link(*self.link)
        elif slot == 0 and self.step:
            self.network.repair_link(*self.link)

    def call(self) -> None:
        level = self.levels[self.step % ENGINE_CYCLE]
        self._rates = self._allocate(self.network, self.table, demands_bps=self.base * level)

    def verify(self) -> int:
        slot = self.step % ENGINE_CYCLE
        self.step += 1
        value = hashlib.sha256(self._rates.tobytes()).hexdigest()
        if self._slot_digests[slot] is None:
            self._slot_digests[slot] = value
        if value != self._slot_digests[slot]:
            self._note_failure(f"step {self.step - 1}: rates differ from slot {slot}'s first cycle")
            return 1
        return 0


def in_process_workload(name: str, seed: int, workdir: str) -> Workload:
    if name in ("campaign_cold", "campaign_warm"):
        return CampaignDrain(seed, workdir, cold=name == "campaign_cold")
    if name == "timeline_replay":
        return TimelineReplay(seed, workdir)
    if name == "engine_step":
        return EngineStep(seed, workdir)
    raise ValueError(f"unknown in-process workload {name!r}")


def closed_loop(
    workload: Workload,
    seconds: float,
    reference: SpeedReference,
    wrap: Optional[Callable[[int], Any]] = None,
) -> Dict[str, Any]:
    """Call after call, each starting when the last one's check is done.

    Every call's wall and CPU time is divided by the speed factor sampled
    around it (``raw_calls_s`` keeps the undivided wall time).  *wrap*, when given,
    returns a context manager to enter around call *n* (the traced run's
    span) or ``None``; the untraced run passes nothing.
    """
    raw: List[float] = []
    wall: List[float] = []
    cpu_s = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        workload.prepare()
        context = wrap(len(wall)) if wrap is not None else None
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        if context is None:
            workload.call()
        else:
            with context:
                workload.call()
        elapsed = time.perf_counter() - started
        cpu_used = cpu_seconds() - cpu_before
        attempted += workload.operations
        failed += workload.verify()
        factor = reference.local_factor(elapsed)
        raw.append(elapsed)
        wall.append(elapsed / factor)
        cpu_s += cpu_used / factor
        if time.perf_counter() >= deadline:
            break
    return {
        "calls_s": wall,
        "raw_calls_s": raw,
        "busy_s": sum(wall),
        "cpu_s": cpu_s,
        "work_units": workload.units_per_call * len(wall),
        "attempted": attempted,
        "failed": failed,
    }


# --------------------------------------------------------------------- #
# service_mixed
# --------------------------------------------------------------------- #


def first_difference(left: Any, right: Any, path: str = "") -> Optional[str]:
    """Where two JSON values differ, floats compared at 12 digits; else ``None``.

    The server is another interpreter than the one that computed the
    reference, so the last ULP may differ (see ``measure.digest``).
    """
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left or key not in right:
                return f"{path}/{key}: only on one side"
            found = first_difference(left[key], right[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(left, list) and isinstance(right, list) and len(left) == len(right):
        for index, (one, other) in enumerate(zip(left, right, strict=True)):
            found = first_difference(one, other, f"{path}[{index}]")
            if found:
                return found
        return None
    if isinstance(left, float) and isinstance(right, float):
        same = math.isclose(left, right, rel_tol=1e-12)
    else:
        same = left == right
    return None if same else f"{path}: {left!r} != {right!r}"

READ_ROUTES = ("status", "points", "report", "campaigns")

#: A request that takes longer than this is counted as failed.
HTTP_TIMEOUT_S = 60.0

#: The reader samples the speed reference this often (seconds of reading).
SEGMENT_S = 1.0

#: Points in every ``uniform_grid`` (6 seeds x 2 volumes x 2 SLOs).
SERVICE_GRID_POINTS = 24


class ServiceMixed(Workload):
    """``serve`` as a subprocess; one reader and one writer thread (closed loop).

    The reader cycles the four read routes against the pre-drained grid;
    the writer loops {submit a fresh grid, poll until the drain ends,
    stream one replay}.  All traffic crosses loopback only.  It has no
    single ``call``: ``run_window`` runs both clients for a fixed time.
    """

    name = "service_mixed"
    unit = "read request"

    def __init__(self, seed: int, workdir: str, src_path: str) -> None:
        super().__init__(seed, workdir)
        self.src_path = src_path
        self.server: Optional[subprocess.Popen] = None

    # -- set-up ---------------------------------------------------------- #
    def setup(self) -> int:
        from repro.campaign import CampaignStore, canonical_result_dict, run_campaign
        from repro.scenario.engine import run_scenario

        self._canonical = canonical_result_dict
        self.store_path = os.path.join(self.workdir, "service.sqlite")
        summary = run_campaign(uniform_grid(self.seed), store_path=self.store_path)
        failed = summary.failed + summary.remaining
        with CampaignStore(self.store_path, read_only=True) as store:
            self.result_digest = digest(store.canonical_dump(summary.campaign_id))
        self.campaign_id = summary.campaign_id
        self.replay_spec = service_replay_scenario(self.seed)
        self.replay_reference = canonical_result_dict(run_scenario(self.replay_spec).to_dict())
        self._start_server()
        prefix = f"{self.base_url}/campaigns/{self.campaign_id[:12]}"
        self.read_urls = {
            "status": f"{prefix}/status",
            "points": f"{prefix}/points?status=done&limit=5",
            "report": f"{prefix}/report",
            "campaigns": f"{self.base_url}/campaigns",
        }
        # One request per route, and one replay so that the server's own
        # calibration memo holds the replay spec before the window opens.
        for route in READ_ROUTES:
            failed += 0 if self._get(self.read_urls[route]) is not None else 1
        failed += 0 if self._replay()["ok"] else 1
        self._generation = 0
        return failed

    def _start_server(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_path + os.pathsep + env.get("PYTHONPATH", "")
        # -u: the "listening on" line must not sit in a pipe buffer.
        self.server = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.experiments",
                "serve",
                "--port",
                "0",
                "--store",
                self.store_path,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        assert self.server.stdout is not None
        line = self.server.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        self.base_url = line.split("listening on ", 1)[1].strip()

    def close(self) -> None:
        """Terminate and reap the server, whatever state the run is in."""
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        if server.stdout is not None:
            server.stdout.close()

    # -- HTTP ------------------------------------------------------------ #
    def _get(self, url: str) -> Optional[Any]:
        try:
            with urllib.request.urlopen(url, timeout=HTTP_TIMEOUT_S) as response:
                return json.loads(response.read())  # non-2xx raises HTTPError
        except (OSError, ValueError) as error:
            self._note_failure(f"GET {url}: {error!r}")
            return None

    def _post(self, path: str, payload: Dict[str, Any]) -> urllib.request.Request:
        return urllib.request.Request(
            self.base_url + path, data=json.dumps(payload).encode("utf-8"), method="POST"
        )

    def _replay(self) -> Dict[str, Any]:
        """Stream one replay; time to first and last NDJSON line."""
        started = time.perf_counter()
        first = None
        last_line = b""
        try:
            request = self._post("/scenarios/replay", {"spec": self.replay_spec})
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
                for line in response:
                    if first is None:
                        first = time.perf_counter() - started
                    if line.strip():
                        last_line = line
            record = json.loads(last_line)
            difference = first_difference(
                self._canonical(record["result"]), self.replay_reference
            )
            ok = record.get("type") == "end" and difference is None
            if not ok:
                self._note_failure(f"replay differs from the offline run: {difference}")
        except (OSError, ValueError, KeyError) as error:
            self._note_failure(f"POST /scenarios/replay: {error!r}")
            ok = False
        return {"ok": ok, "first_s": first or 0.0, "total_s": time.perf_counter() - started}

    # -- the window ------------------------------------------------------ #
    def run_window(
        self,
        seconds: float,
        reference: SpeedReference,
        wrap: Optional[Callable[[str], Any]] = None,
    ) -> Dict[str, Any]:
        """Reader and writer side by side for *seconds*; server CPU and RSS.

        The reader works in segments of ``SEGMENT_S``; between two segments
        it samples *reference* (no request is in flight then, and the writer
        thread is mostly asleep, so the sample does not wait for the
        interpreter lock).  A segment's latencies, length and server CPU
        are divided by the speed factor of the samples on both sides of it.
        """
        assert self.server is not None
        pid = self.server.pid
        stop = threading.Event()
        reads: List[Tuple[str, float]] = []
        raw_latencies: List[float] = []
        read_failures = [0]
        totals = {"window_s": 0.0, "server_cpu_s": 0.0}
        first_sample = len(reference.samples)
        writer: Dict[str, Any] = {
            "attempted": 0,
            "failed": 0,
            "grids": 0,
            "drain_s": [],
            "replay_first_s": [],
            "replay_total_s": [],
        }

        def read_once(route: str) -> float:
            context = wrap(f"service.read.{route}") if wrap is not None else None
            started = time.perf_counter()
            if context is None:
                body = self._get(self.read_urls[route])
            else:
                with context:
                    body = self._get(self.read_urls[route])
            if body is None:
                read_failures[0] += 1
            return time.perf_counter() - started

        def reader() -> None:
            index = 0
            while not stop.is_set():
                segment: List[Tuple[str, float]] = []
                cpu_before = process_cpu_seconds(pid)
                started = time.perf_counter()
                while time.perf_counter() - started < SEGMENT_S and not stop.is_set():
                    route = READ_ROUTES[index % len(READ_ROUTES)]
                    index += 1
                    segment.append((route, read_once(route)))
                elapsed = time.perf_counter() - started
                server_cpu = process_cpu_seconds(pid) - cpu_before
                factor = reference.local_factor(elapsed)
                totals["window_s"] += elapsed / factor
                totals["server_cpu_s"] += server_cpu / factor
                raw_latencies.extend(latency for _route, latency in segment)
                reads.extend((route, latency / factor) for route, latency in segment)

        def write_once() -> None:
            self._generation += 1
            spec = uniform_grid(self.seed, self._generation)
            started = time.perf_counter()
            writer["attempted"] += 1
            try:
                with urllib.request.urlopen(
                    self._post("/campaigns", {"spec": spec}), timeout=HTTP_TIMEOUT_S
                ) as response:
                    campaign_id = json.loads(response.read())["campaign_id"]
            except (OSError, ValueError, KeyError) as error:
                self._note_failure(f"POST /campaigns: {error!r}")
                writer["failed"] += 1
                return
            status_url = f"{self.base_url}/campaigns/{campaign_id[:12]}/status"
            settled = False
            while True:
                writer["attempted"] += 1
                status = self._get(status_url)
                if status is None:
                    writer["failed"] += 1
                    return
                counts = status.get("counts", {})
                drained = counts.get("done") == counts.get("total")
                if status.get("job", {}).get("state") != "running":
                    # The handler reads the counts before the job state, so
                    # the first "done" may carry counts one commit old.
                    if drained or settled:
                        break
                    settled = True
                    continue
                if stop.is_set():
                    return  # window over: the drain dies with the server
                time.sleep(0.05)
            if status.get("job", {}).get("state") != "done" or not drained:
                self._note_failure(f"drain did not finish done: {status}")
                writer["failed"] += 1
            writer["grids"] += 1
            writer["drain_s"].append(time.perf_counter() - started)
            if stop.is_set():
                return
            writer["attempted"] += 1
            replay = self._replay()
            if not replay["ok"]:
                writer["failed"] += 1
            writer["replay_first_s"].append(replay["first_s"])
            writer["replay_total_s"].append(replay["total_s"])

        def write_loop() -> None:
            while not stop.is_set():
                write_once()

        threads = [threading.Thread(target=reader), threading.Thread(target=write_loop)]
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        # The reader's last segment closes the window; the writer returns
        # from its current request and leaves an unfinished drain uncounted.
        stop.set()
        for thread in threads:
            thread.join()
        if self.server.poll() is not None:
            raise RuntimeError(f"serve exited with code {self.server.returncode}")
        window_factor = statistics.median(reference.samples[first_sample:]) / reference.NOMINAL_S
        for key in ("drain_s", "replay_first_s", "replay_total_s"):
            writer[key] = [value / window_factor for value in writer[key]]
        return {
            "reads": reads,
            "raw_latencies_s": raw_latencies,
            "window_s": totals["window_s"],
            "server_cpu_s": totals["server_cpu_s"],
            "server_peak_rss_mb": process_peak_rss_mb(pid),
            "attempted": len(reads) + writer["attempted"],
            "failed": read_failures[0] + writer["failed"],
            "writer": writer,
        }
