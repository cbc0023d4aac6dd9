"""Reference (seed) dict-based max-min allocation, kept as a test oracle.

This is the pure-Python progressive-filling implementation the simulator
shipped with before the vectorized engine landed.  It is deliberately kept
faithful to the original semantics — freezing thresholds, iteration bound
and termination conditions included — so that property tests and the
:mod:`benchmarks` suite can assert that the NumPy implementation in
:mod:`repro.simulator.fairness` computes identical rates, and measure the
speedup against it.  It must not be used on the hot path.

One deliberate fix over the seed (applied identically to both
implementations): a zero-size filling step only terminates the loop when it
also freezes no flow.  The seed broke out unconditionally, so a single
routable flow with zero instantaneous demand starved every other flow of
the step to rate zero.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .flows import Flow


# repro: allow[REP501] the dict oracle tests/test_property_based.py pins the engine to
def reference_max_min_rates(
    network, flows: List[Flow], now_s: float = 0.0
) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
    """Seed max-min fair allocation over usable paths (pure, no mutation).

    Args:
        network: A :class:`~repro.simulator.network.SimulatedNetwork`.
        flows: The flows to allocate; their ``rate_bps`` is left untouched.
        now_s: Simulation time at which demands are evaluated.

    Returns:
        ``(rates, arc_loads)``: achieved rate per flow id (zero for unrouted
        or unroutable flows) and resulting load per directed arc key.
    """
    arc_loads: Dict[Tuple[str, str], float] = {
        key: 0.0 for key in network.topology.arc_keys()
    }
    rates: Dict[str, float] = {flow.flow_id: 0.0 for flow in flows}

    routable = [
        flow
        for flow in flows
        if flow.path is not None and network.path_is_usable(flow.path)
    ]

    remaining_capacity: Dict[Tuple[str, str], float] = {}
    flows_on_arc: Dict[Tuple[str, str], Set[str]] = {}
    demands: Dict[str, float] = {}
    for flow in routable:
        demands[flow.flow_id] = flow.offered_load(now_s)
    for flow in routable:
        for arc in flow.path.arc_keys():
            remaining_capacity.setdefault(arc, network.topology.link(*arc).capacity_bps)
            flows_on_arc.setdefault(arc, set()).add(flow.flow_id)

    allocation = {flow.flow_id: 0.0 for flow in routable}
    frozen: Set[str] = set()
    pending_demand = dict(demands)

    for _ in range(len(routable) + len(remaining_capacity) + 1):
        unfrozen = [fid for fid in allocation if fid not in frozen]
        if not unfrozen:
            break
        increments: List[float] = []
        for arc, flow_ids in flows_on_arc.items():
            active_ids = [fid for fid in flow_ids if fid not in frozen]
            if not active_ids:
                continue
            increments.append(remaining_capacity[arc] / len(active_ids))
        demand_limited = min(
            (pending_demand[fid] for fid in unfrozen), default=float("inf")
        )
        if not increments and demand_limited == float("inf"):
            break
        step = min(min(increments, default=float("inf")), demand_limited)
        if step == float("inf"):
            break
        step = max(step, 0.0)
        for fid in unfrozen:
            allocation[fid] += step
            pending_demand[fid] -= step
        for arc, flow_ids in flows_on_arc.items():
            active_count = sum(1 for fid in flow_ids if fid not in frozen)
            remaining_capacity[arc] -= step * active_count
        frozen_before = len(frozen)
        for fid in list(unfrozen):
            if pending_demand[fid] <= 1e-9:
                frozen.add(fid)
        for arc, flow_ids in flows_on_arc.items():
            if remaining_capacity[arc] <= 1e-9:
                frozen.update(flow_ids)
        if step <= 1e-12 and len(frozen) == frozen_before:
            break

    for flow in routable:
        rates[flow.flow_id] = allocation[flow.flow_id]
        for arc in flow.path.arc_keys():
            arc_loads[arc] += allocation[flow.flow_id]
    return rates, arc_loads

