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
"""

from .core.plan import ResponsePlan
from .core.planner import ActivationResult, activate_paths
from .core.response import ResponseConfig, build_response_plan
from .core.te import ResponseTEController, TEConfig
from .power.accounting import full_power, network_power
from .power.alternative import AlternativeHardwarePowerModel
from .power.cisco import CiscoRouterPowerModel
from .power.commodity import CommoditySwitchPowerModel
from .routing.ospf import ospf_invcap_routing
from .routing.paths import Path, RoutingTable
from .topology.base import Topology
from .traffic.matrix import TrafficMatrix

__version__ = "1.0.0"

__all__ = [
    "ResponsePlan",
    "ActivationResult",
    "activate_paths",
    "ResponseConfig",
    "build_response_plan",
    "ResponseTEController",
    "TEConfig",
    "full_power",
    "network_power",
    "AlternativeHardwarePowerModel",
    "CiscoRouterPowerModel",
    "CommoditySwitchPowerModel",
    "ospf_invcap_routing",
    "Path",
    "RoutingTable",
    "Topology",
    "TrafficMatrix",
    "__version__",
]
