"""Declarative scenarios: registry-backed topology × traffic × power × solver.

The paper's evaluation is a cross-product — topologies × traffic patterns ×
power models × schemes (ECMP / GreenTE-style / ElasticTree / REsPoNse) — and
this package is the single entry point that expresses any point of that
product declaratively:

* :class:`~repro.scenario.spec.ScenarioSpec` and the per-kind component
  specs name every ingredient by its registry name plus plain parameters;
  specs round-trip through dicts/JSON and hash stably (the campaign
  store's key).
* :func:`~repro.scenario.registry.register` adds new components; everything
  the repo ships (fat-tree/GÉANT/Rocketfuel/PoP-access topologies, sine-wave
  /gravity/GÉANT/Google workloads, Cisco/commodity/alternative power models,
  ECMP/GreenTE/ElasticTree/LP/MILP/REsPoNse schemes) is pre-registered.
* :func:`~repro.scenario.engine.build_scenario` /
  :func:`~repro.scenario.engine.run_scenario` resolve and execute a spec,
  returning a uniform :class:`~repro.outcome.ScenarioResult`.

A new scenario is one registration plus one spec — not a new module::

    from repro.scenario import (
        PowerSpec, ScenarioSpec, SchemeSpec, TopologySpec, TrafficSpec,
        run_scenario,
    )

    result = run_scenario(ScenarioSpec(
        name="geant-gravity",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec("gravity", num_pairs=40, num_endpoints=12, seed=1),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("response"), SchemeSpec("elastictree")),
    ))
"""

from . import components  # noqa: F401  (populates the registry on import)
from .components import BuiltTraffic, as_built_traffic, select_pairs
from ..outcome import IntervalOutcome, ScenarioResult
from .engine import (
    BuiltScenario,
    build_scenario,
    run_built_scenario,
    run_scenario,
    scheme_outcomes,
)
from .registry import (
    KINDS,
    component_names,
    register,
    registered_components,
    resolve,
)
from .spec import (
    DEFAULT_UTILISATION_THRESHOLD,
    ComponentSpec,
    EventSpec,
    PowerSpec,
    RoutingSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    apply_spec_setting,
    read_spec_file,
)
from .timeline import (
    SchemeRuntime,
    Timeline,
    TimelineStep,
    TopologyChange,
    TrafficSurge,
    build_timeline,
)

__all__ = [
    "KINDS",
    "DEFAULT_UTILISATION_THRESHOLD",
    "BuiltScenario",
    "BuiltTraffic",
    "ComponentSpec",
    "EventSpec",
    "IntervalOutcome",
    "PowerSpec",
    "RoutingSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "SchemeRuntime",
    "SchemeSpec",
    "Timeline",
    "TimelineStep",
    "TopologyChange",
    "TopologySpec",
    "TrafficSpec",
    "TrafficSurge",
    "apply_spec_setting",
    "as_built_traffic",
    "build_scenario",
    "build_timeline",
    "component_names",
    "read_spec_file",
    "register",
    "registered_components",
    "resolve",
    "run_built_scenario",
    "run_scenario",
    "scheme_outcomes",
    "select_pairs",
]
