"""Load calibration: finding the 100 % utilisation point of a topology.

Section 5.1: "we first compute the maximum traffic load as the traffic volume
that the optimal routing can accommodate if the gravity-determined
proportions are kept.  We do this by incrementally increasing the traffic
demand by 10 % up to a point where CPLEX cannot find a routing that can
accommodate the traffic.  Then, we mark the largest feasible traffic demand
as the 100 % load."

The feasibility oracle here is the splittable multi-commodity-flow LP
(:func:`repro.routing.mcf.is_demand_feasible`), which is what "a routing that
can accommodate the traffic" means once the on/off energy variables are
dropped.

The answer is a point of the growth grid ``s0 = 1, s(i+1) = s(i) * 1.1``: the
last one the oracle accepts.  Walking the grid from ``s0`` costs one LP per
step (29 on GÉANT).  With the default oracle the search holds one
max-concurrent-flow model (:class:`repro.routing.mcf.ConcurrentFlow`): its
``λ*`` says where on the grid the boundary lies, and the walk starts there.
Each grid point the walk stands on is then asked of that same model with
``λ`` pinned to the point — the polytope of the feasibility LP at that
volume, re-solved from the basis the last solve left — except within a
relative band of ``λ*`` where the two LPs may disagree by the solver's
tolerances, which asks the fresh feasibility LP itself.  Either way the
decision at each point is the oracle's, at the same two grid points the full
walk would have ended on, so the returned float is the one the full walk
returns.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Optional, Tuple

from ..exceptions import SolverError, TrafficError
from ..obs import metrics, trace
from ..topology.base import Topology
from .matrix import TrafficMatrix

FeasibilityOracle = Callable[[Topology, TrafficMatrix], bool]

#: Section 5.1's search: from the base matrix itself, grow the volume by 10 %
#: a step; the cap is a safety bound on the number of steps.
GROWTH_STEP = 0.10
MAX_ITERATIONS = 200


#: Hit/miss counters of the calibration memo, which lives beside the
#: process's network table (:func:`~repro.routing.ksp.calibration_memo`),
#: keyed by :func:`_calibration_key`.  A campaign grid typically repeats the
#: same dozen calibrations across every group and worker claim; each
#: MCF-backed calibration is a pure function of the hashed inputs, so reusing
#: the scale factor is bit-identical to recomputing it.  Only default-oracle
#: calls are memoised — a custom oracle is not part of the key and must never
#: be served a cached value.
_CALIBRATION_HITS = metrics.counter(
    "repro_calibration_cache_hits_total", "Calibration memo hits"
)
_CALIBRATION_MISSES = metrics.counter(
    "repro_calibration_cache_misses_total", "Calibration memo misses"
)


def _calibration_key(topology: Topology, base_matrix: TrafficMatrix) -> str:
    """Canonical content hash of every input the calibration depends on
    (the topology's name and its latencies are not among them).

    Float inputs are serialised with ``repr`` (shortest exact round-trip),
    so two topologies/matrices hash equal exactly when the MCF oracle would
    see bit-identical numbers.
    """
    payload = {
        "nodes": sorted(
            (node, n.kind, n.level, n.always_powered)
            for node, n in ((name, topology.node(name)) for name in topology.nodes())
        ),
        "links": sorted(
            (
                link.u,
                link.v,
                repr(link.capacity_bps),
                repr(link.reverse_capacity_bps),
            )
            for link in topology.links()
        ),
        "matrix": sorted(
            (origin, destination, repr(demand))
            for (origin, destination), demand in base_matrix.items()
        ),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def clear_calibration_cache() -> None:
    """Drop all memoised calibrations (tests and long-lived services)."""
    from ..routing.ksp import calibration_memo

    calibration_memo().forget("calibration")
    _CALIBRATION_HITS.reset()
    _CALIBRATION_MISSES.reset()


def calibration_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the calibration memo (a registry snapshot)."""
    return {
        "hits": int(_CALIBRATION_HITS.value),
        "misses": int(_CALIBRATION_MISSES.value),
    }


def _last_step_within(lambda_star: float) -> int:
    """``max{i : s_i <= lambda_star}`` on the growth grid, 0 if there is none.

    Replays the float products of :func:`_confirm_and_slide`, so the step it
    names is a point that walk can stand on.
    """
    factor = 1.0 + GROWTH_STEP
    scale = 1.0
    step = 0
    while step < MAX_ITERATIONS and scale * factor <= lambda_star:
        scale = scale * factor
        step += 1
    return step


def _confirm_and_slide(
    feasible_at: Callable[[float], bool], hint: int
) -> Tuple[float, int, int]:
    """The last grid point *feasible_at* accepts, walking up from step *hint*.

    The hint only chooses where the walk starts.  A hint that is too low is
    slid upwards a step at a time; one that is too high (its own grid point
    is rejected) restarts the walk at step 0; hint 0 is the full linear
    walk.  Every outcome therefore ends on the pair "accepted at step k,
    rejected at step k + 1" that the full walk ends on.

    Returns:
        ``(scale, k, slides)``: the grid point, its step, and how many
        steps the walk took beyond confirming its hint (a restart counts
        as one).

    Raises:
        TrafficError: If step 0 itself is rejected.
    """
    factor = 1.0 + GROWTH_STEP
    slides = 0
    while True:
        scale = 1.0
        for _ in range(hint):
            scale = scale * factor
        if feasible_at(scale):
            break
        if hint == 0:
            raise TrafficError(
                "the initial demand is already infeasible; scale the base matrix down"
            )
        hint = 0
        slides += 1
    step = hint
    while step < MAX_ITERATIONS:
        candidate = scale * factor
        if not feasible_at(candidate):
            break
        scale = candidate
        step += 1
    return scale, step, slides + step - hint


def calibrate_max_load(
    topology: Topology,
    base_matrix: TrafficMatrix,
    # repro: allow[REP502] the walk tests/test_calibration.py checks the LP hint against
    oracle: Optional[FeasibilityOracle] = None,
) -> float:
    """Find the largest feasible multiple of *base_matrix*.

    The base matrix's proportions are kept fixed; the total volume is grown
    multiplicatively by :data:`GROWTH_STEP` per iteration until the
    feasibility oracle rejects it, exactly as the paper calibrates the
    "100 % load".  With the default oracle the growth starts at the step a
    max-concurrent-flow LP points to instead of at the base matrix, and every
    step is a probe of that LP's model; the result is the same float either
    way (see :func:`_confirm_and_slide` and the module docstring).

    Args:
        topology: The network whose capacity bounds the load.
        base_matrix: A matrix encoding the (gravity-determined) proportions.
        oracle: Feasibility test; defaults to the MCF LP.

    Returns:
        The largest feasible scale factor relative to *base_matrix*.

    Raises:
        TrafficError: If the base matrix itself is infeasible or empty.
        SolverError: If a probe of the max-concurrent-flow model ends neither
            optimal nor infeasible (nothing is memoised).
    """
    from ..routing.ksp import calibration_memo

    if len(base_matrix) == 0 or base_matrix.total_bps <= 0:
        raise TrafficError("base matrix carries no traffic; nothing to calibrate")
    if oracle is None:
        return calibration_memo().memo(
            "calibration",
            _calibration_key(topology, base_matrix),
            lambda: _search(topology, base_matrix, None),
            (_CALIBRATION_HITS, _CALIBRATION_MISSES),
            None,
        )
    return _search(topology, base_matrix, oracle)


def _search(
    topology: Topology, base_matrix: TrafficMatrix, oracle: Optional[FeasibilityOracle]
) -> float:
    """The calibration itself (:func:`calibrate_max_load` documents it)."""
    from ..routing.mcf import ConcurrentFlow, is_demand_feasible

    with trace.span("traffic.calibrate", memoised=oracle is None) as calibrate_span:
        probes = 0
        check = oracle or is_demand_feasible
        # A custom oracle has no λ*, and a failed solve leaves none: both
        # walk from step 0 with their oracle, which is the paper's procedure
        # to the letter.
        flow: Optional[ConcurrentFlow] = None
        lambda_star: Optional[float] = None
        if oracle is None:
            flow = ConcurrentFlow(topology, base_matrix)
            try:
                lambda_star = flow.max_scale()
            except SolverError:
                flow = None

        def feasible_at(scale: float) -> bool:
            nonlocal probes
            probes += 1
            if flow is not None:
                return flow.feasible_at(scale)
            return check(topology, base_matrix.scaled(scale))

        hint = 0 if lambda_star is None else _last_step_within(lambda_star)
        scale, growth_iterations, slides = _confirm_and_slide(feasible_at, hint)
        calibrate_span.set(
            growth_iterations=growth_iterations,
            scale=scale,
            lp_solves=1 + probes if oracle is None else 0,
            lambda_star=lambda_star,
            slides=slides,
            probe_iterations=0 if flow is None else flow.probe_iterations,
            fresh_probes=0 if flow is None else flow.fresh_probes,
        )
    return scale
