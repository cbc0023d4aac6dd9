"""Diff two benchmark result files against the bounds of ``BENCHMARK.json``.

    python3 benchmarks/harness/compare.py BASE.ndjson NEW.ndjson

Each file holds the records ``run.py --out`` / ``--append`` writes, any
number of runs per workload.  One row per (workload, end-to-end metric):

* ``regressed``    the new median is worse than the base median by more
                   than the metric's bound;
* ``unresolved``   not regressed, but the run-to-run spread of either side
                   is wider than the bound, so "no change" cannot be claimed
                   (unless every new run beats every base run);
* ``improved``     better by more than either side's own spread;
* ``within bound`` otherwise.

Exits non-zero on a regressed row or a higher ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from measure import quartile_spread
from run import MANIFEST_PATH


def load_records(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def metric_values(records: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    """Every untraced run's value of *metric* on *workload*."""
    return [
        record["metrics"][metric]["value"]
        for record in records
        if record["workload"] == workload and not record["trace"]
        if record["metrics"].get(metric, {}).get("value") is not None
    ]


def worsening(base: float, new: float, better: str) -> float:
    """Signed share of *base* by which *new* is worse (negative: better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def spread_of(values: List[float]) -> Optional[float]:
    return quartile_spread(values) if len(values) >= 2 else None


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Tuple[str, float]:
    """Classify one (workload, metric) pair; also the medians' worsening."""
    worse = worsening(statistics.median(base), statistics.median(new), better)
    if worse > bound:
        return "regressed", worse
    spreads = [spread for spread in (spread_of(base), spread_of(new)) if spread is not None]
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if any(spread > bound for spread in spreads) and not all_better:
        return "unresolved", worse
    if -worse > max(spreads, default=bound):
        return "improved", worse
    return "within bound", worse


def failed_share(records: List[Dict[str, Any]], workload: str) -> float:
    rows = [r for r in records if r["workload"] == workload and not r["trace"]]
    attempted = sum(r["attempted"] for r in rows)
    return sum(r["failed"] for r in rows) / attempted if attempted else 0.0


def compare(
    base: List[Dict[str, Any]], new: List[Dict[str, Any]], manifest: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], bool]:
    """All rows, and whether the comparison passes."""
    rows: List[Dict[str, Any]] = []
    passed = True
    for workload in (entry["name"] for entry in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            old_values = metric_values(base, workload, metric["name"])
            new_values = metric_values(new, workload, metric["name"])
            if not old_values or not new_values:
                continue
            label, worse = verdict(old_values, new_values, metric["better"], metric["bound"])
            passed = passed and label != "regressed"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": statistics.median(old_values),
                    "new": statistics.median(new_values),
                    "runs": (len(old_values), len(new_values)),
                    "worse_by": worse,
                    "bound": metric["bound"],
                    "spread": (spread_of(old_values), spread_of(new_values)),
                    "verdict": label,
                }
            )
        old_share, new_share = failed_share(base, workload), failed_share(new, workload)
        if new_share > old_share:
            passed = False
        if old_share or new_share:
            rows.append(
                {
                    "workload": workload,
                    "metric": "failed_share",
                    "unit": "ratio",
                    "base": old_share,
                    "new": new_share,
                    "verdict": "regressed" if new_share > old_share else "within bound",
                }
            )
    return rows, passed


def _format_spread(spread: Optional[float]) -> str:
    return "-" if spread is None else f"{spread:.3f}"


def print_rows(rows: List[Dict[str, Any]]) -> None:
    header = (
        f"{'workload':<16} {'metric':<16} {'base':>12} {'new':>12} {'worse by':>9} "
        f"{'bound':>6} {'spread b/n':>13}  verdict"
    )
    print(header)
    for row in rows:
        if "bound" not in row:
            print(
                f"{row['workload']:<16} {row['metric']:<16} {row['base']:>12.6g} "
                f"{row['new']:>12.6g} {'':>9} {0:>6} {'':>13}  {row['verdict']}"
            )
            continue
        spreads = "/".join(_format_spread(spread) for spread in row["spread"])
        print(
            f"{row['workload']:<16} {row['metric']:<16} {row['base']:>12.6g} "
            f"{row['new']:>12.6g} {row['worse_by']:>+9.3f} {row['bound']:>6.2f} "
            f"{spreads:>13}  {row['verdict']}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results of the parent commit (NDJSON)")
    parser.add_argument("new", help="results of the change (NDJSON)")
    parser.add_argument(
        "--manifest", default=MANIFEST_PATH, help="BENCHMARK.json to take bounds from"
    )
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as stream:
        manifest = json.load(stream)
    rows, passed = compare(load_records(args.base), load_records(args.new), manifest)
    print_rows(rows)
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {label}" for label, count in sorted(counts.items())))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
