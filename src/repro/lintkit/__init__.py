"""reprolint: AST-based invariant linter for this reproduction.

The repo's load-bearing guarantees — ``canonical_dump`` bit-identity,
the ``BEGIN IMMEDIATE`` store protocol, id-free metrics cardinality —
are enforced dynamically by differential tests.  This package enforces
them *statically*: ``python -m repro.lintkit src`` runs a dozen project
rules (catalogue in ``docs/static-analysis.md``) as a hard CI gate, with
``# repro: allow[RULE] reason`` inline suppressions as the one way to
keep a finding.
"""

from .cli import main
from .engine import (
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    lint_paths,
    lint_source,
)
from .rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "ModuleContext",
    "Rule",
    "lint_paths",
    "lint_source",
    "main",
    "rules_by_id",
]
