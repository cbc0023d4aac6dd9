"""Campaigns: declarative scenario grids with a persistent results store.

A **campaign** turns "run the paper's evaluation across many topologies ×
traffic models × schemes × event schedules × seeds" into one declarative
JSON document and one resumable command:

* :class:`~repro.campaign.spec.CampaignSpec` — a base
  :class:`~repro.scenario.spec.ScenarioSpec` plus axes; ``expand()`` yields
  the config-hashed grid of :class:`~repro.campaign.spec.CampaignPoint`.
* :class:`~repro.campaign.store.CampaignStore` — a SQLite store (campaigns,
  points, results, metrics) keyed by config hash, so completed points are
  never recomputed and a killed run loses at most one in-flight chunk.
  Multi-process safe: WAL + busy timeout, atomic chunk transactions,
  read-only connections and a lease protocol for cooperative workers.
* :func:`~repro.campaign.run.run_campaign` — executes the missing points
  through the one lease-worker drain: claims are grouped by network
  signature, every group is evaluated as one problem and committed
  atomically.  One worker runs in-process, ``workers=N`` forks a fleet with
  crash recovery, ``worker_id`` joins a shared drain by hand.
* :mod:`~repro.campaign.report` — filter/aggregate stored rows, per-scheme
  summary tables, scheme dominance and deviation-from-best over the grid
  (via :mod:`repro.analysis`), CSV/JSON export.

Command line::

    python -m repro.experiments run-campaign --spec campaign.json --store results.sqlite
    python -m repro.experiments run-campaign --spec campaign.json --store results.sqlite --workers 4
    python -m repro.experiments campaign-status --store results.sqlite
    python -m repro.experiments campaign-report --store results.sqlite --format csv

The re-exports are imported on first use (:mod:`repro.lazy`): the store and
the report layer load without the scenario stack the runner needs.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "report": (
        "deviation_from_best",
        "filter_rows",
        "format_table",
        "parse_filters",
        "rows_to_csv",
        "rows_to_json",
        "scheme_dominance",
        "summarise",
    ),
    "run": ("CampaignRunSummary", "run_campaign"),
    "spec": ("AXIS_KEYS", "CAMPAIGN_SCHEMA_VERSION", "CampaignPoint", "CampaignSpec"),
    "store": (
        "DEFAULT_LEASE_SECONDS",
        "STORE_SCHEMA_VERSION",
        "CampaignStore",
        "PointRecord",
        "canonical_result_dict",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
