"""REsPoNse: identifying and using energy-critical paths (CoNEXT 2011).

Reproduction library.  The most commonly used entry points are re-exported
here; the subpackages hold the full API:

* :mod:`repro.topology` — evaluation topologies (GÉANT, Rocketfuel, fat-tree,
  PoP-access, the Figure 3 example) and the core :class:`Topology` type,
* :mod:`repro.power` — router/switch power models and network accounting,
* :mod:`repro.traffic` — traffic matrices, gravity/sine/trace generators,
* :mod:`repro.routing` — OSPF-InvCap, ECMP, k-shortest paths, MCF,
* :mod:`repro.optim` — the energy-aware MILPs and heuristic baselines,
* :mod:`repro.core` — the REsPoNse framework itself (always-on/on-demand/
  failover path computation, energy-critical path analysis, activation
  planner, REsPoNseTE online controller),
* :mod:`repro.simulator` — the flow-level simulator,
* :mod:`repro.apps` — streaming and web workloads,
* :mod:`repro.analysis` — Section 3 trace analyses and evaluation metrics,
* :mod:`repro.experiments` — one driver per evaluation figure.

The re-exports are imported on first use (:mod:`repro.lazy`), so importing
one subpackage does not load the others.
"""

from .lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "core.plan": ("ResponsePlan",),
    "core.planner": ("ActivationResult", "activate_paths"),
    "core.response": ("ResponseConfig", "build_response_plan"),
    "core.te": ("ResponseTEController", "TEConfig"),
    "power.accounting": ("full_power", "network_power"),
    "power.alternative": ("AlternativeHardwarePowerModel",),
    "power.cisco": ("CiscoRouterPowerModel",),
    "power.commodity": ("CommoditySwitchPowerModel",),
    "routing.ospf": ("ospf_invcap_routing",),
    "routing.paths": ("Path", "RoutingTable"),
    "topology.base": ("Topology",),
    "traffic.matrix": ("TrafficMatrix",),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*(name for names in _EXPORTS.values() for name in names), "__version__"]
