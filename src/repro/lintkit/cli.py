"""``python -m repro.lintkit`` — the reprolint command line.

Exit codes:

* ``0`` — no active findings (everything clean or suppressed),
* ``1`` — at least one active finding,
* ``2`` — usage error (unknown rule id).

``--format json`` emits the machine report; the default text format is
one ``path:line:col: RULE message`` line per finding, run summary at the
end.  With ``--output`` the report goes to the file and the text report
still goes to stdout, so one CI invocation feeds the artifact and the log.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .engine import LintResult, lint_paths
from .rules import ALL_RULES, rules_by_id

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description=(
            "reprolint: AST rules enforcing this repo's determinism, "
            "store-discipline and observability contracts at the source "
            "level (catalogue: docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the report to PATH (stdout then gets the text report)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"       {rule.rationale}")
    return "\n".join(lines)


def _text_report(result: LintResult, show_suppressed: bool) -> str:
    lines: List[str] = []
    for finding in result.findings:
        if finding.active:
            lines.append(
                f"{finding.location()}: {finding.rule} {finding.message}"
            )
        elif show_suppressed:
            lines.append(
                f"{finding.location()}: {finding.rule} [suppressed] {finding.message}"
            )
    active = len(result.active)
    summary = (
        f"{result.files_checked} files checked: {active} finding"
        f"{'' if active == 1 else 's'}"
        f" ({len(result.suppressed)} suppressed)"
    )
    lines.append(summary)
    return "\n".join(lines)


# repro: allow[REP502] tests/test_lintkit.py drives the CLI in-process with argv lists
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rules = list(ALL_RULES)
    if args.select:
        catalogue = rules_by_id()
        selected = [rule_id.strip() for rule_id in args.select.split(",")]
        unknown = [rule_id for rule_id in selected if rule_id not in catalogue]
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)} "
                "(see --list-rules)",
                file=sys.stderr,
            )
            return 2
        rules = [catalogue[rule_id] for rule_id in selected]

    result = lint_paths(args.paths, rules)

    text = _text_report(result, args.show_suppressed) + "\n"
    report = json.dumps(result.to_dict(), indent=2) + "\n" if args.format == "json" else text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        report = text
    sys.stdout.write(report)
    return 1 if result.active else 0
