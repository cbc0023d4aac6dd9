"""Traffic matrices, traces and workload generators."""

from .geant_trace import (
    GEANT_INTERVAL_S,
    GEANT_TRACE_DAYS,
    diurnal_factor,
    generate_geant_trace,
    trace_time_labels,
    weekly_factor,
)
from .google_trace import (
    GOOGLE_INTERVAL_S,
    GOOGLE_TRACE_DAYS,
    google_trace,
    google_volume_series,
    relative_changes,
)
from .gravity import gravity_fractions, gravity_matrix, node_weights
from .matrix import (
    Pair,
    TrafficMatrix,
    all_pairs,
    select_pairs_among_subset,
    select_random_pairs,
)
from .aggregate import (
    aggregate_matrix,
    aggregate_trace,
    aggregation_map,
    nearest_ancestor,
)
from .replay import TraceInterval, TrafficTrace
from .scaling import (
    calibrate_max_load,
    calibration_cache_stats,
    clear_calibration_cache,
)
from .sinewave import fattree_sine_pairs, sine_fraction, sine_wave_trace

__all__ = [
    "GEANT_INTERVAL_S",
    "GEANT_TRACE_DAYS",
    "diurnal_factor",
    "generate_geant_trace",
    "trace_time_labels",
    "weekly_factor",
    "GOOGLE_INTERVAL_S",
    "GOOGLE_TRACE_DAYS",
    "google_trace",
    "google_volume_series",
    "relative_changes",
    "gravity_fractions",
    "gravity_matrix",
    "node_weights",
    "Pair",
    "TrafficMatrix",
    "all_pairs",
    "select_pairs_among_subset",
    "select_random_pairs",
    "TraceInterval",
    "TrafficTrace",
    "aggregate_matrix",
    "aggregate_trace",
    "aggregation_map",
    "nearest_ancestor",
    "calibrate_max_load",
    "calibration_cache_stats",
    "clear_calibration_cache",
    "fattree_sine_pairs",
    "sine_fraction",
    "sine_wave_trace",
]
