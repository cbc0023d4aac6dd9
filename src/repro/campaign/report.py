"""Query, aggregate and export campaign results.

The report layer answers grid-level questions from the store without
re-running anything: *which scheme dominates on mean power across the whole
grid?  how far from the per-point best does each scheme stay?  what does
the topology axis do to savings?*  It works on the flat **metric rows** the
store derives from every result (one row per completed point × scheme,
carrying the point's axis coordinates plus scalar metrics) and reuses the
:mod:`repro.analysis` toolkit: per-group distributions come from
:func:`~repro.analysis.metrics.percentile_summary` and the cross-grid
winner distribution from
:func:`~repro.analysis.dominance.configuration_dominance` — the same
machinery the paper's Figure 2a uses for routing configurations, applied to
schemes across a campaign.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.dominance import DominanceResult, configuration_dominance
from ..analysis.metrics import percentile_summary
from ..exceptions import ConfigurationError
from ..outcome import metric_directions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import CampaignStore


def parse_filters(expressions: Sequence[str]) -> Dict[str, str]:
    """``["scheme=response", "seed=0"]`` → ``{"scheme": "response", "seed": "0"}``."""
    filters: Dict[str, str] = {}
    for expression in expressions:
        key, separator, value = expression.partition("=")
        if not separator or not key:
            raise ConfigurationError(
                f"filters look like KEY=VALUE (an axis, 'scheme' or 'point'), "
                f"got {expression!r}"
            )
        filters[key] = value
    return filters


def _require_columns(
    rows: Sequence[Mapping[str, Any]], columns: Iterable[str], role: str
) -> None:
    """Raise :class:`ConfigurationError` if a *role* column is in no row."""
    known = {column for row in rows for column in row}
    unknown = [column for column in columns if column not in known]
    if unknown and rows:
        raise ConfigurationError(
            f"unknown {role} column(s) {unknown}; rows have: {sorted(known)}"
        )


def filter_rows(
    rows: Sequence[Mapping[str, Any]], filters: Optional[Mapping[str, str]] = None
) -> List[Dict[str, Any]]:
    """Rows whose columns match every filter (string-compared).

    Raises:
        ConfigurationError: If a filter names a column no row has.
    """
    if not filters:
        return [dict(row) for row in rows]
    _require_columns(rows, filters, "filter")
    return [
        dict(row)
        for row in rows
        if all(str(row.get(key)) == value for key, value in filters.items())
    ]


def summarise(
    rows: Sequence[Mapping[str, Any]],
    metric: str = "mean_power_percent",
    group_by: Sequence[str] = ("scheme",),
) -> List[Dict[str, Any]]:
    """Aggregate one metric over row groups.

    Returns one record per group (in first-seen order): the group columns,
    ``count`` and the min/median/mean/p95/max distribution of the metric
    (:func:`~repro.analysis.metrics.percentile_summary`).  Rows missing the
    metric (schemes that do not track it) are skipped.

    Raises:
        ConfigurationError: If a group-by column names a column no row has.
    """
    _require_columns(rows, group_by, "group-by")
    groups: Dict[Tuple[str, ...], List[float]] = {}
    for row in rows:
        if metric in row:
            key = tuple(str(row.get(column)) for column in group_by)
            groups.setdefault(key, []).append(float(row[metric]))
    return [
        {**dict(zip(group_by, key, strict=True)), "metric": metric, "count": len(values)}
        | percentile_summary(values)
        for key, values in groups.items()
    ]


def _points(rows: Sequence[Mapping[str, Any]], metric: str) -> List[List[Tuple[float, str]]]:
    """Each grid point's ``(value, scheme)`` pairs for *metric*, in row order."""
    by_point: Dict[str, List[Tuple[float, str]]] = {}
    for row in rows:
        if metric in row:
            by_point.setdefault(str(row["config_hash"]), []).append(
                (float(row[metric]), str(row["scheme"]))
            )
    return list(by_point.values())


def scheme_dominance(
    rows: Sequence[Mapping[str, Any]],
    metric: str = "mean_power_percent",
) -> Dict[str, Any]:
    """Which scheme wins each grid point, and how dominant the winner is.

    Every completed point contributes one winner (the scheme with the best
    metric value at that point); the winner sequence feeds
    :func:`~repro.analysis.dominance.configuration_dominance`, exactly as
    the paper measures routing-configuration dwell time.  Returns the
    per-scheme win share plus the dominance distribution.
    """
    lower_is_better = metric_directions().get(metric, True)
    winners = [
        (min(candidates) if lower_is_better else max(candidates))[1]
        for candidates in _points(rows, metric)
    ]
    dominance: DominanceResult = configuration_dominance(winners)
    shares = {scheme: winners.count(scheme) / len(winners) for scheme in sorted(set(winners))}
    dominant = max(shares, key=shares.__getitem__) if shares else None
    return {
        "metric": metric,
        "lower_is_better": lower_is_better,
        "points": len(winners),
        "winners": shares,
        "dominant_scheme": dominant,
        "dominant_fraction": dominance.dominant_fraction,
        "num_winning_schemes": dominance.num_configurations,
    }


def deviation_from_best(
    rows: Sequence[Mapping[str, Any]],
    metric: str = "mean_power_percent",
) -> List[Dict[str, Any]]:
    """Per-scheme distribution of the gap to each point's best value.

    The campaign-level analogue of the paper's "REsPoNse stays within a few
    percent of the optimum": for every grid point, each scheme's deviation
    is its metric value minus the best value any scheme achieved at that
    point (sign-adjusted so 0 is optimal and larger is worse); deviations
    are then summarised per scheme with
    :func:`~repro.analysis.metrics.percentile_summary`.
    """
    lower_is_better = metric_directions().get(metric, True)
    deviations: Dict[str, List[float]] = {}
    for candidates in _points(rows, metric):
        best = (min(candidates) if lower_is_better else max(candidates))[0]
        for value, scheme in candidates:
            gap = value - best
            deviations.setdefault(scheme, []).append(gap if lower_is_better else -gap)
    return [
        {"scheme": scheme, "metric": metric, "count": len(gaps), **percentile_summary(gaps)}
        for scheme, gaps in sorted(deviations.items())
    ]


class UnknownMetricError(ConfigurationError):
    """A report asked for a metric the campaign never recorded."""


def campaign_report(
    store: "CampaignStore",
    campaign_id: str,
    metric: str,
    group_by: Sequence[str],
    filters: Mapping[str, str],
) -> Dict[str, Any]:
    """The one report pipeline behind ``campaign-report`` and
    ``GET /campaigns/{id}/report``.

    Checks *metric* against what the campaign recorded, filters the
    campaign's metric rows read from *store*, then summarises them by
    *group_by* and ranks the schemes across the grid.

    Returns:
        ``metric``, ``group_by`` and ``filters`` as given, the filtered
        ``rows``, and their ``summary``, ``dominance`` and ``deviation``.

    Raises:
        UnknownMetricError: If the campaign recorded metrics and *metric*
            is none of them.
        ConfigurationError: If a filter or group-by column names a column
            no row has.
    """
    known_metrics = store.metric_names(campaign_id)
    if known_metrics and metric not in known_metrics:
        raise UnknownMetricError(
            f"unknown metric {metric!r}; this campaign recorded: "
            f"{', '.join(known_metrics)}"
        )
    rows = filter_rows(store.metric_rows(campaign_id), filters)
    return {
        "metric": metric,
        "group_by": list(group_by),
        "filters": dict(filters),
        "rows": rows,
        "summary": summarise(rows, metric=metric, group_by=group_by),
        "dominance": scheme_dominance(rows, metric=metric),
        "deviation": deviation_from_best(rows, metric=metric),
    }


# --------------------------------------------------------------------- #
# Rendering and export
# --------------------------------------------------------------------- #
def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render records as a fixed-width text table (column order preserved)."""
    if not rows:
        return "(no rows)"
    columns = list(dict.fromkeys(column for row in rows for column in row))
    table = [
        columns,
        *([_format_cell(row.get(column, "")) for column in columns] for row in rows),
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths, strict=True)).rstrip()
        for line in table
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Records as a CSV document (union of columns, row order preserved)."""
    buffer = io.StringIO()
    columns = list(dict.fromkeys(column for row in rows for column in row))
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def rows_to_json(rows: Sequence[Mapping[str, Any]]) -> str:
    """Records as a JSON array document."""
    return json.dumps(list(rows), indent=2, sort_keys=True) + "\n"


__all__ = [
    "UnknownMetricError",
    "campaign_report",
    "deviation_from_best",
    "filter_rows",
    "format_table",
    "parse_filters",
    "rows_to_csv",
    "rows_to_json",
    "scheme_dominance",
    "summarise",
]
