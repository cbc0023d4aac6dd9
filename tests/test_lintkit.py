"""reprolint: golden fixture tests, engine semantics and CLI.

Three layers:

* **Fixture goldens** — every file in ``tests/lintkit_fixtures/`` declares
  a virtual location (``# lint-as:``) plus the exact findings it expects
  (``# expect: REPxxx`` / ``# expect-suppressed: REPxxx`` trailing
  markers).  The harness asserts the finding set matches *exactly*, so a
  fixture fails both when its rule stops firing (rule deleted/broken) and
  when a rule over-fires (false positive on the negative sections).  The
  cross-file rules (REP501, REP502) have a small tree each,
  ``lintkit_fixtures/rep501/`` and ``rep502/``, linted as a repo root of
  its own with the same markers.
* **Engine semantics** — suppression placement, unused-allow (REP000),
  parse errors (REP999), docstring immunity.
* **Meta gate** — the repo's own ``src/`` lints clean under every rule.
"""

import json
import re
from pathlib import Path

import pytest

from repro.lintkit import cli
from repro.lintkit.engine import (
    PARSE_ERROR_RULE,
    UNUSED_ALLOW_RULE,
    lint_paths,
    lint_source,
)
from repro.lintkit.rules import ALL_RULES, rules_by_id

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = Path(__file__).resolve().parent / "lintkit_fixtures"

LINT_AS_RE = re.compile(r"#\s*lint-as:\s*(\S+)")
EXPECT_RE = re.compile(r"#\s*expect(-suppressed)?:\s*([A-Z0-9,\s]+?)\s*$")

#: A minimal REP202 violation used by the CLI tests below.
VIOLATION = (
    "from repro.campaign.store import CampaignStore\n"
    "\n"
    "\n"
    "def open_store(path):\n"
    "    return CampaignStore(path)\n"
)


def expected_findings(source):
    """The ``(line, rule)`` sets a fixture's trailing markers declare."""
    expected_active = set()
    expected_suppressed = set()
    for lineno, line in enumerate(source.splitlines(), 1):
        marker = EXPECT_RE.search(line)
        if marker is None:
            continue
        rule_ids = [part.strip() for part in marker.group(2).split(",") if part.strip()]
        bucket = expected_suppressed if marker.group(1) else expected_active
        for rule_id in rule_ids:
            bucket.add((lineno, rule_id))
    return expected_active, expected_suppressed


def load_fixture(path):
    """Parse one fixture into (source, virtual path, expected finding sets)."""
    source = path.read_text(encoding="utf-8")
    match = LINT_AS_RE.search(source)
    assert match is not None, f"{path.name} is missing its '# lint-as:' header"
    return (source, match.group(1), *expected_findings(source))


FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))
#: Cross-file rule -> the one module of its fixture tree that carries markers.
TREE_FIXTURES = {
    "REP501": FIXTURE_DIR / "rep501" / "src" / "pkg" / "surface.py",
    "REP502": FIXTURE_DIR / "rep502" / "src" / "pkg" / "options.py",
}


# --------------------------------------------------------------------- #
# Fixture goldens
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda path: path.stem)
def test_fixture_golden(fixture):
    source, rel_path, expected_active, expected_suppressed = load_fixture(fixture)
    findings = lint_source(source, rel_path, ALL_RULES)
    active = {(f.line, f.rule) for f in findings if f.active}
    suppressed = {(f.line, f.rule) for f in findings if f.suppressed}
    assert active == expected_active, fixture.name
    assert suppressed == expected_suppressed, fixture.name


def assert_tree_golden(rule):
    module = TREE_FIXTURES[rule]
    root = module.parents[2]
    rel_path = module.relative_to(root).as_posix()
    result = lint_paths([str(root / "src")], ALL_RULES, root=root)
    assert {f.path for f in result.findings} == {rel_path}
    expected_active, expected_suppressed = expected_findings(module.read_text())
    assert {(f.line, f.rule) for f in result.active} == expected_active
    assert {(f.line, f.rule) for f in result.suppressed} == expected_suppressed
    assert rule in {found for _, found in expected_active}
    # The rule needs the cross-file index: one module on its own says nothing.
    alone = lint_source(module.read_text(), rel_path, ALL_RULES)
    assert rule not in {f.rule for f in alone}


def test_rep501_tree_golden():
    """Callers count from src/, benchmarks/ and examples/ — not from tests/,
    not from ``__init__`` re-exports, not from a name's own body."""
    assert_tree_golden("REP501")


def test_rep502_tree_golden():
    """An option is set by position, by keyword or through a splat — under
    the caller roots, not from tests/; registered components (either form),
    overriding methods and ``_``-names are exempt."""
    assert_tree_golden("REP502")


def test_every_rule_has_positive_and_suppressed_coverage():
    """Deleting any rule (or its suppression path) must break a fixture."""
    covered_active, covered_suppressed = set(), set()
    markers = [expected_findings(module.read_text()) for module in TREE_FIXTURES.values()]
    for active, suppressed in markers + [load_fixture(fixture)[2:] for fixture in FIXTURES]:
        covered_active |= {rule for _, rule in active}
        covered_suppressed |= {rule for _, rule in suppressed}
    rule_ids = set(rules_by_id())
    assert rule_ids <= covered_active, rule_ids - covered_active
    assert rule_ids <= covered_suppressed, rule_ids - covered_suppressed


def test_fixture_scope_negatives_stay_clean():
    """Path-scoped rules must not fire outside their packages (REP503: not
    in the modules that own the import or the per-arc dict)."""
    for name in (
        "scope_negative_orchestration.py",
        "rep103_scope_negative.py",
        "rep503_owners_negative.py",
        "rep503_arc_dicts_owner_negative.py",
    ):
        source, rel_path, active, suppressed = load_fixture(FIXTURE_DIR / name)
        assert not active and not suppressed  # the fixture declares nothing
        assert lint_source(source, rel_path, ALL_RULES) == []


#: One violation each of the package-scoped determinism rules (REP103 is
#: scoped to the ordered-sum modules instead, see ``rep103_scope_negative``).
DETERMINISM_VIOLATIONS = (
    "import random\n"
    "import time\n"
    "\n"
    "\n"
    "def total(names):\n"
    "    started = time.time()\n"
    "    jitter = random.random()\n"
    "    return started + jitter + sum(len(name) for name in set(names))\n"
)


@pytest.mark.parametrize("package", ["optim", "power"])
def test_determinism_rules_cover_optim_and_power(package):
    """``optim/`` and ``power/`` feed ``canonical_dump`` like the rest.

    Both were out of scope while a set-ordered float sum in
    ``power/accounting.py`` and set-ordered MILP rows in
    ``optim/pathmilp.py`` made results follow ``PYTHONHASHSEED``.
    """
    findings = lint_source(DETERMINISM_VIOLATIONS, f"src/repro/{package}/sums.py", ALL_RULES)
    assert {f.rule for f in findings if f.active} == {"REP101", "REP102", "REP104"}
    assert lint_source(DETERMINISM_VIOLATIONS, "src/repro/campaign/sums.py", ALL_RULES) == []


# --------------------------------------------------------------------- #
# Engine semantics
# --------------------------------------------------------------------- #
def test_same_line_suppression():
    source = "import time\n\nt = time.time()  # repro: allow[REP101] boot stamp\n"
    findings = lint_source(source, "src/repro/simulator/boot.py", ALL_RULES)
    assert [f.rule for f in findings] == ["REP101"]
    assert findings[0].suppressed and not findings[0].active


def test_unused_allow_is_rep000():
    source = "# repro: allow[REP101] stale reason\nx = 1\n"
    findings = lint_source(source, "src/repro/simulator/stale.py", ALL_RULES)
    assert [f.rule for f in findings] == [UNUSED_ALLOW_RULE]
    assert "suppresses nothing" in findings[0].message
    assert findings[0].active


def test_unknown_rule_id_in_allow_is_rep000():
    source = "# repro: allow[REP998] no such rule\nx = 1\n"
    findings = lint_source(source, "src/repro/simulator/unknown.py", ALL_RULES)
    assert [f.rule for f in findings] == [UNUSED_ALLOW_RULE]
    assert "unknown rule" in findings[0].message


def test_docstring_mention_does_not_suppress():
    source = (
        '"""Docs quoting the syntax: # repro: allow[REP101] not a comment."""\n'
        "import time\n"
        "\n"
        "t = time.time()\n"
    )
    findings = lint_source(source, "src/repro/simulator/doc.py", ALL_RULES)
    assert [(f.rule, f.line, f.active) for f in findings] == [("REP101", 4, True)]


def test_parse_error_is_rep999_not_crash():
    findings = lint_source("def broken(:\n", "src/repro/simulator/bad.py", ALL_RULES)
    assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
    assert findings[0].active


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_exit_codes_and_suppressed_listing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no caller roots to index under this root
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    assert cli.main([str(bad)]) == 1
    assert "REP202" in capsys.readouterr().out

    # An inline allow with a reason is the one way to keep a finding.
    bad.write_text(VIOLATION.replace("(path)\n", "(path)  # repro: allow[REP202] fixture\n"))
    assert cli.main([str(bad)]) == 0
    out = capsys.readouterr().out
    assert "REP202" not in out and "0 findings (1 suppressed)" in out
    assert cli.main([str(bad), "--show-suppressed"]) == 0
    assert "REP202 [suppressed]" in capsys.readouterr().out


def test_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    assert cli.main([str(tmp_path), "--select", "REP123"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    out = tmp_path / "lint.json"
    code = cli.main([str(bad), "--format", "json", "--output", str(out)])
    assert "REP202" in capsys.readouterr().out  # the log still gets the text report
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"active": 1, "suppressed": 0}
    (finding,) = payload["findings"]
    assert finding["rule"] == "REP202"
    assert finding["line"] == 5 and finding["suppressed"] is False


def test_cli_select_runs_only_selected_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    # Violates REP202; selecting only REP401 must report nothing.
    bad.write_text(VIOLATION)
    assert cli.main([str(bad), "--select", "REP401"]) == 0
    capsys.readouterr()


# --------------------------------------------------------------------- #
# Meta gate: the repo itself
# --------------------------------------------------------------------- #
def test_repo_src_lints_clean(monkeypatch, capsys):
    """The CI gate: ``python -m repro.lintkit src`` exits 0 on this repo,
    with the two cross-file rules run and their allows within budget."""
    monkeypatch.chdir(REPO_ROOT)
    assert cli.main(["src", "--show-suppressed"]) == 0
    kept = [line for line in capsys.readouterr().out.splitlines() if "[suppressed]" in line]
    assert 0 < sum(" REP501 " in line for line in kept) <= 8
    assert 0 < sum(" REP502 " in line for line in kept) <= 12
