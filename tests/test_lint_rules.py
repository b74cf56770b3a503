"""Fixture-driven tests of the ``repro lint`` rule set.

The fixture convention is self-describing: every line in
``tests/lint_fixtures/`` the checker must flag carries an
``# expect[RULE-ID]`` marker.  The tests assert the lint run over the
fixture tree reports *exactly* the marked ``(path, line, rule)`` set —
so a rule that over-reports fails as loudly as one that under-reports.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.lint import REGISTRY, run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"

EXPECT_RE = re.compile(r"expect\[([A-Za-z0-9_]+)\]")

RULE_IDS = sorted(REGISTRY)


def expected_findings() -> set[tuple[str, int, str]]:
    """Collect ``(rel_path, line, rule)`` from the fixture markers."""
    expected: set[tuple[str, int, str]] = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for match in EXPECT_RE.finditer(line):
                expected.add((rel, lineno, match.group(1)))
    return expected


def test_fixture_markers_exist() -> None:
    """Every AST rule has at least one positive fixture case."""
    marked_rules = {rule for _, _, rule in expected_findings()}
    assert set(RULE_IDS) <= marked_rules
    assert "SUP001" in marked_rules  # the engine-level unknown-suppression check


def test_full_run_matches_markers_exactly() -> None:
    result = run_lint(FIXTURES)
    got = {(f.path, f.line, f.rule) for f in result.findings}
    assert got == expected_findings()


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_single_rule_selection(rule_id: str) -> None:
    """``--select RULE`` reproduces exactly that rule's marker set."""
    result = run_lint(FIXTURES, rule_ids=[rule_id])
    assert result.rules == [rule_id]
    got = {(f.path, f.line) for f in result.findings if f.rule == rule_id}
    want = {(p, line) for (p, line, rule) in expected_findings() if rule == rule_id}
    assert got == want


def test_findings_carry_file_line_and_rule() -> None:
    result = run_lint(FIXTURES)
    for finding in result.findings:
        assert (FIXTURES / finding.path).is_file()
        assert finding.line >= 1
        assert finding.col >= 0
        assert finding.message
        source_line = (FIXTURES / finding.path).read_text().splitlines()[
            finding.line - 1
        ]
        assert f"expect[{finding.rule}]" in source_line


def test_suppressions_are_honored_and_counted() -> None:
    result = run_lint(FIXTURES)
    suppressed = {(f.path, f.rule) for f in result.suppressed}
    # One suppressed case per AST rule (see fixtures).
    assert suppressed == {
        ("det001_wall.py", "DET001"),
        ("det002_rng.py", "DET002"),
        ("core/det003_iter.py", "DET003"),
        ("api001_all.py", "API001"),
        ("serving/sim001_heap.py", "SIM001"),
    }
    reported = {(f.path, f.line) for f in result.findings}
    for finding in result.suppressed:
        assert (finding.path, finding.line) not in reported


def test_det001_allowlist_covers_wall_only_modules() -> None:
    result = run_lint(FIXTURES, rule_ids=["DET001"])
    assert not any(f.path == "obs/selfprof.py" for f in result.findings)


def test_det003_scope_excludes_order_insensitive_code() -> None:
    result = run_lint(FIXTURES, rule_ids=["DET003"])
    assert not any(f.path == "det003_outside_scope.py" for f in result.findings)


def test_rule_metadata() -> None:
    """Each rule carries an id, a title, and a docstringed rationale."""
    for rule_id, cls in REGISTRY.items():
        assert re.fullmatch(r"[A-Z]{3}\d{3}", rule_id)
        assert cls.id == rule_id
        assert cls.title
        assert cls.__doc__ and len(cls.__doc__.split()) >= 10


def test_expected_rule_set() -> None:
    assert RULE_IDS == ["API001", "DET001", "DET002", "DET003", "SIM001"]
