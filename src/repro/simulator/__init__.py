"""Flow-level network simulator (stand-in for ns-2, Click and ModelNet).

The hot path is array-based: directed arcs get dense integer indices (the
topology's :class:`~repro.topology.index.TopologyIndex`), installed paths
compile to index arrays once and the per-step max-min fair allocation runs as
NumPy reductions over a CSR :class:`Incidence`
(:func:`max_min_fair_rates`).  The original dict-based allocation survives
in :mod:`repro.simulator.reference` as the oracle the equivalence tests and
scaling benchmarks compare against.
"""

from .aggregate import AggregatedFlows, allocate_aggregated
from .engine import Controller, Sample, SimulationEngine, SimulationResult
from .failures import FailureState, TopologyChange, TopologyView, due
from .fairness import Incidence, max_min_fair_rates
from .flows import (
    DemandProfile,
    Flow,
    constant_demand,
    offered_load_vector,
    stepped_demand,
)
from .network import DEFAULT_WAKE_DELAY_S, LinkState, SimulatedNetwork
from .reference import reference_max_min_rates

__all__ = [
    "AggregatedFlows",
    "allocate_aggregated",
    "Controller",
    "Sample",
    "SimulationEngine",
    "SimulationResult",
    "FailureState",
    "TopologyChange",
    "TopologyView",
    "due",
    "Incidence",
    "max_min_fair_rates",
    "DemandProfile",
    "Flow",
    "constant_demand",
    "offered_load_vector",
    "stepped_demand",
    "LinkState",
    "DEFAULT_WAKE_DELAY_S",
    "SimulatedNetwork",
    "reference_max_min_rates",
]
