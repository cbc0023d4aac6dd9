"""reprolint: golden fixture tests, engine semantics, CLI and baseline.

Three layers:

* **Fixture goldens** — every file in ``tests/lintkit_fixtures/`` declares
  a virtual location (``# lint-as:``) plus the exact findings it expects
  (``# expect: REPxxx`` / ``# expect-suppressed: REPxxx`` trailing
  markers).  The harness asserts the finding set matches *exactly*, so a
  fixture fails both when its rule stops firing (rule deleted/broken) and
  when a rule over-fires (false positive on the negative sections).  The
  cross-file rule (REP501) has a small tree, ``lintkit_fixtures/rep501/``,
  linted as a repo root of its own with the same markers.
* **Engine semantics** — suppression placement, unused-allow (REP000),
  parse errors (REP999), docstring immunity, baseline round-trips.
* **Meta gates** — the repo's own ``src/`` lints clean, and the committed
  baseline stays empty for ``simulator/`` and ``scenario/``.
"""

import json
import re
from pathlib import Path

import pytest

from repro.lintkit import cli
from repro.lintkit.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
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

#: A minimal REP202 violation used by the CLI/baseline tests below.
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
REP501_TREE = FIXTURE_DIR / "rep501"
REP501_SURFACE = REP501_TREE / "src" / "pkg" / "surface.py"


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


def test_rep501_tree_golden():
    """Callers count from src/, benchmarks/ and examples/ — not from tests/,
    not from ``__init__`` re-exports, not from a name's own body."""
    result = lint_paths([str(REP501_TREE / "src")], ALL_RULES, root=REP501_TREE)
    assert {f.path for f in result.findings} == {"src/pkg/surface.py"}
    expected_active, expected_suppressed = expected_findings(REP501_SURFACE.read_text())
    assert {(f.line, f.rule) for f in result.active} == expected_active
    assert {(f.line, f.rule) for f in result.suppressed} == expected_suppressed
    # The rule needs the cross-file index: one module on its own says nothing.
    alone = lint_source(REP501_SURFACE.read_text(), "src/pkg/surface.py", ALL_RULES)
    assert "REP501" not in {f.rule for f in alone}


def test_every_rule_has_positive_and_suppressed_coverage():
    """Deleting any rule (or its suppression path) must break a fixture."""
    covered_active, covered_suppressed = (
        {rule for _, rule in markers}
        for markers in expected_findings(REP501_SURFACE.read_text())
    )
    for fixture in FIXTURES:
        _, _, active, suppressed = load_fixture(fixture)
        covered_active |= {rule for _, rule in active}
        covered_suppressed |= {rule for _, rule in suppressed}
    rule_ids = set(rules_by_id())
    assert rule_ids <= covered_active, rule_ids - covered_active
    assert rule_ids <= covered_suppressed, rule_ids - covered_suppressed


def test_fixture_scope_negatives_stay_clean():
    """Path-scoped rules must not fire outside their packages."""
    for name in ("scope_negative_orchestration.py", "rep103_scope_negative.py"):
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
# Baseline
# --------------------------------------------------------------------- #
def test_baseline_round_trip(tmp_path):
    findings = lint_source(VIOLATION, "src/repro/campaign/x.py", ALL_RULES)
    assert len(findings) == 1 and findings[0].rule == "REP202"
    baseline_path = tmp_path / "bl.json"
    write_baseline(baseline_path, findings)
    loaded = load_baseline(baseline_path)
    assert loaded == {fingerprint(findings[0]): 1}
    marked = apply_baseline(findings, loaded)
    assert marked[0].baselined and not marked[0].active


def test_baseline_budget_is_per_fingerprint_count(tmp_path):
    """One grandfathered copy does not excuse a second identical violation."""
    baseline_path = tmp_path / "bl.json"
    one = lint_source(VIOLATION, "src/repro/campaign/x.py", ALL_RULES)
    write_baseline(baseline_path, one)
    doubled = VIOLATION + "\n\ndef again(path):\n    return CampaignStore(path)\n"
    two = lint_source(doubled, "src/repro/campaign/x.py", ALL_RULES)
    assert len(two) == 2
    marked = apply_baseline(two, load_baseline(baseline_path))
    assert sum(f.baselined for f in marked) == 1
    assert sum(f.active for f in marked) == 1


def test_baseline_rejects_foreign_json(tmp_path):
    path = tmp_path / "bl.json"
    path.write_text('{"not": "a baseline"}')
    with pytest.raises(ValueError):
        load_baseline(path)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_exit_codes_and_baseline_flow(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no caller roots to index under this root
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    baseline = tmp_path / "bl.json"

    assert cli.main([str(bad), "--no-baseline"]) == 1
    assert "REP202" in capsys.readouterr().out

    assert cli.main([str(bad), "--write-baseline", "--baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert cli.main([str(bad), "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out
    # --no-baseline reveals the grandfathered finding again.
    assert cli.main([str(bad), "--no-baseline"]) == 1
    capsys.readouterr()


def test_cli_unknown_rule_is_usage_error(tmp_path, capsys):
    assert cli.main([str(tmp_path), "--select", "REP123"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION)
    out = tmp_path / "lint.json"
    code = cli.main(
        [str(bad), "--no-baseline", "--format", "json", "--output", str(out)]
    )
    capsys.readouterr()
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"active": 1, "suppressed": 0, "baselined": 0}
    (finding,) = payload["findings"]
    assert finding["rule"] == "REP202"
    assert finding["line"] == 5 and finding["suppressed"] is False


def test_cli_select_runs_only_selected_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    # Violates REP202; selecting only REP401 must report nothing.
    bad.write_text(VIOLATION)
    assert cli.main([str(bad), "--no-baseline", "--select", "REP401"]) == 0
    capsys.readouterr()


# --------------------------------------------------------------------- #
# Meta gates: the repo itself
# --------------------------------------------------------------------- #
def test_repo_src_lints_clean(monkeypatch, capsys):
    """The CI gate: ``python -m repro.lintkit src`` exits 0 on this repo."""
    monkeypatch.chdir(REPO_ROOT)
    assert cli.main(["src"]) == 0
    capsys.readouterr()


def test_committed_baseline_is_empty_for_engine_packages():
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    engine_entries = [
        key
        for key in baseline
        if key.startswith(("src/repro/simulator/", "src/repro/scenario/"))
    ]
    assert engine_entries == [], (
        "determinism findings in simulator/ or scenario/ must be fixed or "
        "# repro: allow-ed with a reason, never grandfathered"
    )
