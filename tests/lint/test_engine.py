"""Engine plumbing: JSON schema, rule selection."""

from __future__ import annotations

import json

import pytest

from repro.lint import ALL_RULES, Finding, run_lint

BAD_SOURCE = '"""Fixture."""\nimport random\n\n\ndef roll():\n    return random.random()\n'


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="SL999"):
        run_lint(rules=["SL999"])


def test_rule_registry_is_stable():
    """The documented rule set: AST + whole-program rules, in id order."""
    assert list(ALL_RULES) == [
        "SL001", "SL002", "SL003", "SL004", "SL005", "SL006",
        "SL008", "SL009",
        "SL201", "SL202", "SL203", "SL204", "SL205",
    ]
    for rule_id, cls in ALL_RULES.items():
        rule = cls()
        assert rule.id == rule_id
        assert rule.title and rule.rationale


def test_json_schema(tmp_path):
    """The --format json document shape CI depends on."""
    from repro.lint.report import render_json

    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    result = run_lint(paths=[tmp_path])
    doc = json.loads(render_json(result))
    assert set(doc) == {
        "version", "clean", "files_scanned", "rules", "findings", "stats",
    }
    assert doc["version"] == 2 and doc["clean"] is False
    assert doc["stats"]["files_scanned"] == doc["files_scanned"]
    assert doc["findings"]
    for finding in doc["findings"]:
        assert set(finding) == {"rule", "path", "line", "message", "snippet"}
        assert finding["rule"].startswith("SL")
        assert isinstance(finding["line"], int)


def test_finding_is_plain_data():
    finding = Finding(rule="SL001", path="a.py", line=3, message="m", snippet="s")
    assert finding.to_json() == {
        "rule": "SL001", "path": "a.py", "line": 3, "message": "m", "snippet": "s",
    }
    assert finding == Finding(rule="SL001", path="a.py", line=3, message="m", snippet="s")
