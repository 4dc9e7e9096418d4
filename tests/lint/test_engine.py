"""Engine plumbing: baselines, fingerprints, JSON schema, rule selection."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigError
from repro.lint import ALL_RULES, Baseline, Finding, run_lint

BAD_SOURCE = '"""Fixture."""\nimport random\n\n\ndef roll():\n    return random.random()\n'


@pytest.fixture
def findings(tmp_path):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    return run_lint(paths=[tmp_path], audit=False).findings


def test_fingerprint_survives_line_shifts(tmp_path, findings):
    """Adding code above a finding must not invalidate its baseline entry."""
    (tmp_path / "mod.py").write_text(
        '"""Fixture."""\nimport random\n\nPADDING = 1\nMORE = 2\n\n\ndef roll():\n'
        "    return random.random()\n"
    )
    shifted = run_lint(paths=[tmp_path], audit=False).findings
    assert [f.fingerprint for f in shifted] == [f.fingerprint for f in findings]
    assert shifted[0].line != findings[0].line


def test_baseline_round_trip(tmp_path, findings):
    """save -> load -> partition suppresses exactly the recorded findings."""
    baseline = Baseline.from_findings(findings, justification="known wart")
    path = tmp_path / "baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert loaded.entries == baseline.entries
    new, suppressed, unused = loaded.partition(findings)
    assert new == [] and len(suppressed) == len(findings) and unused == []


def test_baseline_requires_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": {"deadbeef": {"rule": "SL001", "path": "x.py", "justification": ""}},
    }))
    with pytest.raises(ConfigError, match="justification"):
        Baseline.load(path)


@pytest.mark.parametrize("justification", ["   \t  ", "ok", "wip", "fine now"])
def test_baseline_rejects_vacuous_justifications(tmp_path, justification):
    """Whitespace-only and sub-10-character grunts are not
    explanations; load() refuses them like the placeholder."""
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": {"deadbeef": {
            "rule": "SL001", "path": "x.py",
            "justification": justification,
        }},
    }))
    with pytest.raises(ConfigError, match="justification|too short"):
        Baseline.load(path)


def test_baseline_accepts_minimal_real_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": {"deadbeef": {
            "rule": "SL001", "path": "x.py",
            "justification": "seeded rng in a demo script",
        }},
    }))
    assert "deadbeef" in Baseline.load(path).entries


def test_baseline_rejects_bad_documents(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="not found"):
        Baseline.load(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="JSON"):
        Baseline.load(bad)
    wrong = tmp_path / "v2.json"
    wrong.write_text(json.dumps({"version": 2, "entries": {}}))
    with pytest.raises(ConfigError, match="version-1"):
        Baseline.load(wrong)


def test_stale_baseline_entry_reported(tmp_path):
    (tmp_path / "clean.py").write_text('"""Clean."""\n')
    baseline = Baseline({"feedface00000000": {
        "rule": "SL001", "path": "gone.py", "snippet": "x",
        "justification": "covered code was deleted",
    }})
    result = run_lint(paths=[tmp_path], baseline=baseline, audit=False)
    assert result.clean
    assert result.unused_baseline == ["feedface00000000"]


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="SL999"):
        run_lint(rules=["SL999"], audit=False)


def test_rule_registry_is_stable():
    """The documented rule set: AST + whole-program + audit rules."""
    assert sorted(ALL_RULES) == [
        "SL001", "SL002", "SL003", "SL004", "SL005", "SL006",
        "SL008", "SL009",
        "SL101", "SL102", "SL103", "SL104",
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
    result = run_lint(paths=[tmp_path], audit=False)
    doc = json.loads(render_json(result, audit=False))
    assert set(doc) == {
        "version", "clean", "files_scanned", "rules",
        "findings", "suppressed", "unused_baseline", "stats",
    }
    assert doc["version"] == 1 and doc["clean"] is False
    assert doc["stats"]["files_scanned"] == doc["files_scanned"]
    for finding in doc["findings"]:
        assert set(finding) == {
            "rule", "path", "line", "message", "snippet", "fingerprint",
        }
        assert finding["rule"].startswith("SL")
        assert isinstance(finding["line"], int)
        assert len(finding["fingerprint"]) == 16


def test_json_schema_with_audit(shipped_tree_lint):
    """With the audit layer on, the document grows an 'audit' section."""
    from repro.lint.report import render_json

    doc = json.loads(render_json(shipped_tree_lint, audit=True))
    audit = doc["audit"]
    assert {a["protocol"] for a in audit["protocols"]} == {
        "MESI", "MOESI", "MESTI", "E-MOESTI",
    }
    for entry in audit["protocols"]:
        assert entry["rows_reachable"] > 0
        assert entry["crashed"] == []
        assert entry["unaccounted"] == []
        for dead in entry["dead_rows"]:
            assert dead["why"]
    assert set(audit["mesti_vs_emesti"]) == {"bus", "directory"}


def test_finding_is_plain_data():
    finding = Finding(rule="SL001", path="a.py", line=3, message="m", snippet="s")
    assert finding.to_json()["fingerprint"] == finding.fingerprint
    assert finding == Finding(rule="SL001", path="a.py", line=3, message="m", snippet="s")
