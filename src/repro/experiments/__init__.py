"""Experiment drivers: one module per evaluation figure of the paper.

Each driver builds its scenarios through :mod:`repro.scenario` and returns a
result dataclass holding the figure's series.  ``_EXPORTS`` is the one
figure list: each key names a figure module whose driver is ``run_<key>``,
and ``python -m repro.experiments --list`` prints the keys
(:mod:`repro.experiments.runner`).  A driver is imported when one of its
names is first used, so the command line loads only the figures it runs.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "always_on_capacity": ("AlwaysOnCapacityResult", "run_always_on_capacity"),
    "fig1a": ("Fig1aResult", "run_fig1a"),
    "fig1b": ("Fig1bResult", "run_fig1b"),
    "fig2a": ("Fig2aResult", "run_fig2a"),
    "fig2b": ("Fig2bResult", "run_fig2b"),
    "fig4": ("Fig4Result", "run_fig4"),
    "fig5": ("Fig5Result", "run_fig5"),
    "fig6": ("FIG6_VARIANTS", "Fig6Result", "run_fig6"),
    "fig7": ("Fig7Result", "run_fig7"),
    "fig8a": ("Fig8Result", "run_fig8a"),
    "fig8b": ("run_fig8b",),
    "fig9": ("Fig9Result", "run_fig9"),
    "stress_ablation": ("StressAblationResult", "run_stress_ablation"),
    "web_latency": ("WebLatencyResult", "run_web_latency"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
