"""Engine-level tests: suppression parsing, JSON schema stability,
CLI wiring, and the zero-finding baseline on the committed tree."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    collect_suppressions,
    run_lint,
    to_json,
    to_text,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: The repro-lint/1 payload's exact key set; adding/renaming keys is a
#: schema bump and must update this test *and* the schema tag.
JSON_KEYS = {
    "schema",
    "root",
    "rules",
    "files_checked",
    "findings",
    "counts",
    "suppressed_count",
}
FINDING_KEYS = {"rule", "path", "line", "col", "message"}


# -- suppression parsing ------------------------------------------------------


def test_suppression_single_and_multi_rule() -> None:
    source = "x = 1  # repro: allow[DET001]\ny = 2  # repro: allow[DET002, SIM001]\n"
    assert collect_suppressions(source) == {
        1: {"DET001"},
        2: {"DET002", "SIM001"},
    }


def test_suppression_inside_string_literal_is_ignored() -> None:
    source = 's = "# repro: allow[DET001]"\n'
    assert collect_suppressions(source) == {}


def test_suppression_without_rule_id_is_not_a_waiver() -> None:
    assert collect_suppressions("x = 1  # repro: allow\n") == {}
    assert collect_suppressions("x = 1  # repro: allow[]\n") == {}


# -- engine behaviour ---------------------------------------------------------


def test_unknown_rule_selection_raises() -> None:
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint(FIXTURES, rule_ids=["NOPE001"])


def test_missing_root_raises(tmp_path: Path) -> None:
    with pytest.raises(ValueError, match="not a directory"):
        run_lint(tmp_path / "nowhere")


def test_syntax_error_is_reported_not_raised(tmp_path: Path) -> None:
    (tmp_path / "broken.py").write_text("def f(:\n")
    result = run_lint(tmp_path)
    assert [f.rule for f in result.findings] == ["PARSE001"]
    assert result.findings[0].path == "broken.py"


def test_findings_are_sorted_and_deterministic() -> None:
    first = run_lint(FIXTURES)
    second = run_lint(FIXTURES)
    assert [f.as_dict() for f in first.findings] == [
        f.as_dict() for f in second.findings
    ]
    keys = [(f.path, f.line, f.col, f.rule) for f in first.findings]
    assert keys == sorted(keys)


# -- JSON / text output -------------------------------------------------------


def test_json_schema_stability() -> None:
    payload = to_json(run_lint(FIXTURES))
    assert payload["schema"] == "repro-lint/1"
    assert set(payload) == JSON_KEYS
    assert payload["files_checked"] == len(list(FIXTURES.rglob("*.py")))
    assert payload["rules"] == sorted(payload["rules"])
    for finding in payload["findings"]:
        assert set(finding) == FINDING_KEYS
    assert payload["counts"] == {
        rule: sum(1 for f in payload["findings"] if f["rule"] == rule)
        for rule in {f["rule"] for f in payload["findings"]}
    }
    assert payload["suppressed_count"] == 5
    # The payload is pure JSON (round-trips without loss).
    assert json.loads(json.dumps(payload)) == payload


def test_text_output_format() -> None:
    result = run_lint(FIXTURES)
    text = to_text(result)
    lines = text.splitlines()
    assert lines[-1].startswith(f"checked {result.files_checked} file(s):")
    first = result.findings[0]
    assert lines[0] == (
        f"{first.path}:{first.line}:{first.col + 1}: {first.rule} {first.message}"
    )


# -- CLI ----------------------------------------------------------------------


def test_cli_lint_fixtures_json_exit_code() -> None:
    out = io.StringIO()
    code = main(["lint", "--root", str(FIXTURES), "--format", "json"], out=out)
    assert code == 1
    payload = json.loads(out.getvalue())
    assert payload["schema"] == "repro-lint/1"
    assert payload["findings"]


def test_cli_lint_select_single_rule() -> None:
    out = io.StringIO()
    code = main(["lint", "--root", str(FIXTURES), "--select", "SIM001"], out=out)
    assert code == 1
    body = out.getvalue()
    assert "SIM001" in body
    assert "DET001" not in body


def test_cli_lint_unknown_rule_is_a_usage_error() -> None:
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["lint", "--root", str(FIXTURES), "--select", "NOPE001"], out=io.StringIO())


def test_cli_list_rules() -> None:
    out = io.StringIO()
    assert main(["lint", "--list-rules"], out=out) == 0
    body = out.getvalue()
    for rule_id in ("DET001", "DET002", "DET003", "API001", "SIM001"):
        assert rule_id in body
    assert "repro: allow[RULE-ID]" in body


def test_committed_tree_is_clean() -> None:
    """The meta-contract: ``repro lint`` exits 0 on the shipped package."""
    out = io.StringIO()
    code = main(["lint", "--format", "json"], out=out)
    payload = json.loads(out.getvalue())
    assert payload["findings"] == [], payload["findings"]
    assert code == 0
    # The default root is the installed package itself.
    assert payload["root"].endswith("repro")
    assert payload["files_checked"] > 90
