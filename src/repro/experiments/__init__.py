"""Experiment drivers: one module per evaluation figure of the paper.

Each driver builds its scenarios through :mod:`repro.scenario` and returns a
result dataclass holding the figure's series.  ``python -m repro.experiments
--list`` shows the figures runnable from the command line
(:mod:`repro.experiments.runner`).
"""

from .always_on_capacity import AlwaysOnCapacityResult, run_always_on_capacity
from .fig1a import Fig1aResult, run_fig1a
from .fig1b import Fig1bResult, run_fig1b
from .fig2a import Fig2aResult, run_fig2a
from .fig2b import Fig2bResult, run_fig2b
from .fig4 import Fig4Result, run_fig4
from .fig5 import Fig5Result, run_fig5
from .fig6 import FIG6_VARIANTS, Fig6Result, run_fig6
from .fig7 import Fig7Result, run_fig7
from .fig8a import Fig8Result, run_fig8a
from .fig8b import run_fig8b
from .fig9 import Fig9Result, run_fig9
from .stress_ablation import StressAblationResult, run_stress_ablation
from .web_latency import WebLatencyResult, run_web_latency

__all__ = [
    "AlwaysOnCapacityResult",
    "run_always_on_capacity",
    "Fig1aResult",
    "run_fig1a",
    "Fig1bResult",
    "run_fig1b",
    "Fig2aResult",
    "run_fig2a",
    "Fig2bResult",
    "run_fig2b",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "FIG6_VARIANTS",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8a",
    "run_fig8b",
    "Fig9Result",
    "run_fig9",
    "StressAblationResult",
    "run_stress_ablation",
    "WebLatencyResult",
    "run_web_latency",
]
