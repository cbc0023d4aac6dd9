"""The reprolint rule engine: one AST walk per file, shared analyses.

Every load-bearing contract in this reproduction — ``canonical_dump``
bit-identity, the ``BEGIN IMMEDIATE`` store protocol, the id-free
metrics cardinality rule — is otherwise enforced only dynamically, by
differential tests that cannot see a violation until it flakes.  This
engine lets ~30-line :class:`Rule` subclasses enforce those contracts at
the source level, so a stray ``time.time()`` in engine code fails review
instead of surfacing as a cross-host dump mismatch months later.

The engine is deliberately generic; everything project-specific lives in
:mod:`repro.lintkit.rules`.  Per file it provides:

* a parsed AST plus **parent links** (``ModuleContext.parent_of``),
* **import-alias resolution** (``resolve_name`` maps ``np.random.rand``
  back to ``numpy.random.rand`` through this file's imports),
* a light **scope analysis** of set-typed local names,
* ``# repro: allow[RULE] reason`` **inline suppressions** (same line or
  a comment-only line directly above), with unused-allow detection.

Findings never abort the walk: a file that fails to parse yields a
single ``REP999`` finding and the run continues.
"""

from __future__ import annotations

import ast
import re
import tokenize
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "Rule",
    "ModuleContext",
    "Suppression",
    "LintResult",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "referenced_names",
    "CallSites",
    "ReferenceIndex",
    "PARSE_ERROR_RULE",
    "UNUSED_ALLOW_RULE",
]

#: Reserved rule ids emitted by the engine itself.
PARSE_ERROR_RULE = "REP999"
UNUSED_ALLOW_RULE = "REP000"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]\s*(.*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    snippet: str = ""
    suppressed: bool = False

    @property
    def active(self) -> bool:
        """Whether the finding should fail the run."""
        return not self.suppressed

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }


@dataclass
class CallSites:
    """What the calls of one callee identifier pass, merged over all sites."""

    positional: int = 0  # most positional arguments at any one site
    keywords: Set[str] = field(default_factory=set)
    splat: bool = False  # a ``*`` / ``**`` argument somewhere: counts as everything


@dataclass
class ReferenceIndex:
    """The cross-file pre-pass over the rules' ``reference_roots``."""

    #: How often each identifier is referenced (REP501).
    names: Counter[str] = field(default_factory=Counter)
    #: Per callee identifier — ``f`` of ``f(...)``, ``m`` of ``x.m(...)`` —
    #: the arguments its call sites pass (REP502).
    calls: Dict[str, CallSites] = field(default_factory=dict)

    def add(self, tree: ast.AST, imports: bool) -> None:
        self.names.update(referenced_names(tree, imports))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._add_call(node)

    def _add_call(self, call: ast.Call) -> None:
        if isinstance(call.func, ast.Call) and _identifier(call.func.func) == "register":
            # ``register(kind, name)(builder)``: the builder's parameters
            # arrive from spec JSON, which may set any of them.
            for builder in filter(None, map(_identifier, call.args)):
                self.calls.setdefault(builder, CallSites()).splat = True
            return
        callee = _identifier(call.func)
        if callee is None:
            return
        sites = self.calls.setdefault(callee, CallSites())
        sites.positional = max(sites.positional, len(call.args))
        sites.keywords.update(keyword.arg for keyword in call.keywords if keyword.arg)
        sites.splat |= any(isinstance(argument, ast.Starred) for argument in call.args)
        sites.splat |= any(keyword.arg is None for keyword in call.keywords)


def _identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class Suppression:
    """One ``# repro: allow[RULE] reason`` comment."""

    line: int  # line the comment sits on
    rules: Tuple[str, ...]
    reason: str
    comment_only: bool  # True when the line holds nothing but the comment
    used: Set[str] = field(default_factory=set)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`title` / :attr:`rationale` and
    implement :meth:`check`, yielding :class:`Finding` objects (use
    :meth:`ModuleContext.finding` so snippets and paths stay uniform).
    :meth:`applies_to` keeps path scoping declarative — rules never see
    files outside their scope, so ``check`` stays about the AST only.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: Directories (relative to the lint root) whose files count as callers
    #: for a cross-file rule; :func:`lint_paths` indexes them once per run
    #: into :attr:`ModuleContext.references`.
    reference_roots: Tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        return True

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError


class ModuleContext:
    """Everything the rules need to know about one source file."""

    def __init__(
        self,
        rel_path: str,
        source: str,
        tree: ast.Module,
        references: Optional[ReferenceIndex] = None,
    ) -> None:
        self.rel_path = rel_path
        self.source = source
        #: The index over the rules' ``reference_roots``; ``None`` when
        #: linting one in-memory module.
        self.references = references
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.aliases = self._collect_aliases(tree)
        self.suppressions = self._collect_suppressions(source)

    # ------------------------------------------------------------------ #
    # Structure helpers
    # ------------------------------------------------------------------ #
    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent_of(node)
        while current is not None:
            yield current
            current = self.parent_of(current)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=rule.id,
            path=self.rel_path,
            line=line,
            col=col,
            message=message,
            snippet=self.line_text(line),
        )

    # ------------------------------------------------------------------ #
    # Import-alias resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
        """Map local names to the dotted path they import.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        perf_counter as pc`` maps ``pc -> time.perf_counter``.  Only
        top-level and function-level imports are seen — good enough for
        this codebase, where conditional re-imports do not occur on the
        paths the rules police.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.names:
                # Relative imports resolve against the repo package layout:
                # the rules match on suffixes, so "..obs.trace" -> "obs.trace"
                # is enough to recognise `from ..obs import trace`.
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    dotted = f"{module}.{alias.name}" if module else alias.name
                    aliases[local] = dotted
        return aliases

    def resolve_name(self, node: ast.AST) -> Optional[str]:
        """The dotted name a Name/Attribute chain refers to, imports applied.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the file did ``import numpy as np``.  Returns ``None`` for
        anything that is not a plain attribute chain (calls, subscripts).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        root = self.aliases.get(parts[0])
        if root is not None:
            parts[0] = root
        return ".".join(parts)

    def calls(self) -> Iterator[ast.Call]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node

    # ------------------------------------------------------------------ #
    # Suppressions
    # ------------------------------------------------------------------ #
    @staticmethod
    def _collect_suppressions(source: str) -> List[Suppression]:
        """Parse allow comments from *real* COMMENT tokens only.

        Scanning raw lines would also match the syntax when it is quoted
        in a docstring (this repo documents it in several), so the
        tokenizer decides what is a comment.
        """
        suppressions: List[Suppression] = []
        lines = source.splitlines()
        try:
            tokens = list(
                tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return suppressions
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if not match:
                continue
            lineno = token.start[0]
            text = lines[lineno - 1] if lineno <= len(lines) else token.string
            rules = tuple(
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            )
            suppressions.append(
                Suppression(
                    line=lineno,
                    rules=rules,
                    reason=match.group(2).strip(),
                    comment_only=text.strip().startswith("#"),
                )
            )
        return suppressions

    def suppression_for(self, rule: str, line: int) -> Optional[Suppression]:
        """The allow comment covering *rule* at *line*, if any.

        A suppression covers its own line, and — when it is a
        comment-only line — the first following non-comment line, so
        long statements can carry the allow above them.
        """
        for suppression in self.suppressions:
            if rule not in suppression.rules:
                continue
            if suppression.line == line:
                return suppression
            if suppression.comment_only and suppression.line < line:
                # Skip any further comment-only lines between the allow
                # comment and the statement it covers.
                index = suppression.line  # 0-based index of the next line
                while index < len(self.lines) and self.lines[index].strip().startswith("#"):
                    index += 1
                if index + 1 == line:
                    return suppression
        return None


@dataclass
class LintResult:
    """The outcome of linting a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def active(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.active]

    @property
    def suppressed(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "counts": {
                "active": len(self.active),
                "suppressed": len(self.suppressed),
            },
            "findings": [finding.to_dict() for finding in self.findings],
        }


class _ParseErrorRule(Rule):
    id = PARSE_ERROR_RULE
    title = "file does not parse"
    rationale = "A file the linter cannot parse is a file no rule protects."


class _UnusedAllowRule(Rule):
    id = UNUSED_ALLOW_RULE
    title = "unused suppression"
    rationale = (
        "An allow comment that no longer matches a finding is stale "
        "documentation: either the violation was fixed (delete the "
        "comment) or the rule id is wrong (fix it)."
    )


_PARSE_ERROR = _ParseErrorRule()
_UNUSED_ALLOW = _UnusedAllowRule()


def lint_source(
    source: str,
    rel_path: str,
    rules: Sequence[Rule],
    references: Optional[ReferenceIndex] = None,
) -> List[Finding]:
    """Lint one in-memory module as if it lived at *rel_path*.

    This is the seam the fixture tests drive: path-scoped rules behave
    exactly as they would on a real file at that location.  Cross-file
    rules need *references* (see :func:`lint_paths`) and stay silent
    without it.
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 1) or 1
        return [
            Finding(
                rule=PARSE_ERROR_RULE,
                path=rel_path,
                line=line,
                col=(getattr(error, "offset", 1) or 1),
                message=(
                    "file does not parse: "
                    f"{error.msg if isinstance(error, SyntaxError) else error}"
                ),
            )
        ]
    ctx = ModuleContext(rel_path, source, tree, references)
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(rel_path):
            continue
        for finding in rule.check(ctx):
            suppression = ctx.suppression_for(finding.rule, finding.line)
            if suppression is not None:
                suppression.used.add(finding.rule)
                finding = replace(finding, suppressed=True)
            findings.append(finding)
    active_rule_ids = {rule.id for rule in rules}
    for suppression in ctx.suppressions:
        for rule_id in suppression.rules:
            if rule_id in suppression.used:
                continue
            if rule_id not in active_rule_ids:
                message = f"allow comment names unknown rule {rule_id}"
            else:
                message = (
                    f"allow[{rule_id}] suppresses nothing here; "
                    "delete the comment or fix the rule id"
                )
            findings.append(
                Finding(
                    rule=UNUSED_ALLOW_RULE,
                    path=rel_path,
                    line=suppression.line,
                    col=1,
                    message=message,
                    snippet=source.splitlines()[suppression.line - 1].strip(),
                )
            )
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.col, finding.rule))
    return findings


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into the sorted set of .py files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate.suffix == ".py" and candidate not in seen:
                seen.add(candidate)
                yield candidate


def _read_source(path: Path) -> str:
    # tokenize.open honours PEP 263 coding cookies, matching CPython.
    with tokenize.open(path) as handle:
        return handle.read()


def referenced_names(tree: ast.AST, imports: bool = True) -> Iterator[str]:
    """Every identifier *tree* refers to: names, attributes, ``from`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif imports and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name


def _index_references(root: Path, reference_roots: Iterable[str]) -> ReferenceIndex:
    """Index identifier references and call sites under *reference_roots*.

    A ``from x import name`` in an ``__init__.py`` is a re-export, not a
    caller, and is not counted.  Unreadable files count nothing; if they
    are also linted they surface as ``REP999`` there.
    """
    references = ReferenceIndex()
    for path in iter_python_files(str(root / name) for name in reference_roots):
        try:
            tree = ast.parse(_read_source(path))
        except (OSError, UnicodeDecodeError, SyntaxError, ValueError):
            continue
        references.add(tree, imports=path.name != "__init__.py")
    return references


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[Rule],
    # repro: allow[REP502] tests/test_lintkit.py lints fixture trees as repo roots of their own
    root: Optional[Path] = None,
) -> LintResult:
    """Lint *paths* (files or directories) with *rules*.

    Paths in findings are reported relative to *root* (default: the
    current working directory) so reports travel with the repo.  When a
    rule names ``reference_roots`` those directories under *root* are
    indexed once, before any file is linted.
    """
    root = (root or Path.cwd()).resolve()
    reference_roots = sorted({name for rule in rules for name in rule.reference_roots})
    references = _index_references(root, reference_roots) if reference_roots else None
    result = LintResult()
    for path in iter_python_files(paths):
        resolved = path.resolve()
        try:
            rel_path = resolved.relative_to(root).as_posix()
        except ValueError:
            rel_path = path.as_posix()
        try:
            source = _read_source(path)
        except (OSError, UnicodeDecodeError, SyntaxError) as error:
            result.findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=rel_path,
                    line=1,
                    col=1,
                    message=f"cannot read file: {error}",
                )
            )
            result.files_checked += 1
            continue
        result.findings.extend(lint_source(source, rel_path, rules, references))
        result.files_checked += 1
    result.findings.sort(
        key=lambda finding: (finding.path, finding.line, finding.col, finding.rule)
    )
    return result
