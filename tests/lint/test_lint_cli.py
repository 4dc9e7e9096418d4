"""The ``repro-sim lint`` surface: exit codes, formats, baseline flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

BAD_SOURCE = '"""Fixture."""\nimport random\n\n\ndef roll():\n    return random.random()\n'


def test_lint_clean_tree_exits_zero(capsys, monkeypatch, shipped_tree_lint):
    """The shipped tree lints clean with the committed baseline."""
    import repro.lint
    from repro.lint import Baseline

    # The session's shared whole-tree lint stands in for the CLI's own
    # run; the CLI must have asked for exactly that lint.
    calls = []

    def shared_lint(**kwargs):
        calls.append(kwargs)
        return shipped_tree_lint

    monkeypatch.setattr(repro.lint, "run_lint", shared_lint)
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "simlint: clean" in out
    (kwargs,) = calls
    assert kwargs["paths"] is None and kwargs["rules"] is None
    assert kwargs["baseline"].entries == Baseline.load(Baseline.default_path()).entries


def test_lint_violation_exits_one(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    assert main(["lint", str(tmp_path), "--baseline", "none"]) == 1
    out = capsys.readouterr().out
    assert "SL001" in out and "finding(s)" in out


def test_lint_bad_rule_exits_two(capsys):
    assert main(["lint", "--rule", "SL999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_lint_missing_explicit_baseline_exits_two(tmp_path, capsys):
    assert main(["lint", "--baseline", str(tmp_path / "nope.json")]) == 2
    assert "baseline" in capsys.readouterr().err


def test_lint_json_output(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    code = main([
        "lint", str(tmp_path), "--baseline", "none", "--format", "json",
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is False
    assert doc["findings"][0]["rule"] == "SL001"
    assert "audit" not in doc


def test_lint_rule_filter(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    assert main([
        "lint", str(tmp_path), "--baseline", "none",
        "--rule", "SL003",
    ]) == 0
    assert "simlint: clean" in capsys.readouterr().out


def test_lint_update_baseline_round_trip(tmp_path, capsys):
    """--update-baseline with --justification makes the next run clean."""
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
        "--update-baseline",
        "--justification", "fixture randomness is intentional",
    ]) == 0
    capsys.readouterr()
    doc = json.loads(baseline.read_text())
    assert doc["version"] == 1 and doc["entries"]
    for entry in doc["entries"].values():
        assert entry["justification"] == "fixture randomness is intentional"
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
    ]) == 0
    assert "baselined" in capsys.readouterr().out


def test_lint_update_baseline_without_justification_fails(tmp_path, capsys):
    """An unjustified baseline is written for editing but exits non-zero,
    and the placeholder entries refuse to load on the next run."""
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
        "--update-baseline",
    ]) == 1
    err = capsys.readouterr().err
    assert "--justification" in err
    doc = json.loads(baseline.read_text())
    assert all(
        e["justification"] == "TODO: justify" for e in doc["entries"].values()
    )
    # The placeholder file cannot pass a gate: load() refuses it.
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
    ]) == 2
    assert "placeholder" in capsys.readouterr().err


def test_lint_update_baseline_no_findings_needs_no_justification(tmp_path, capsys):
    """A clean tree baselines to an empty file without --justification."""
    (tmp_path / "mod.py").write_text('"""Fixture."""\nX = 1\n')
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
        "--update-baseline",
    ]) == 0
    assert json.loads(baseline.read_text())["entries"] == {}


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == [
        "SL001", "SL002", "SL003", "SL004", "SL005", "SL006",
        "SL008", "SL009",
        "SL201", "SL202", "SL203", "SL204", "SL205",
    ]


def test_lint_no_audit_is_an_unknown_option(capsys):
    """The table audit left lint for `repro-sim check`; so did its flag."""
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--no-audit"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-audit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --select / --stats and the SL2xx baseline interaction
# ---------------------------------------------------------------------------

SL201_SOURCE = (
    '"""Fixture."""\n'
    "import time\n\n\n"
    "async def handler():\n"
    "    time.sleep(1)\n"
)


def _write_service_fixture(tmp_path):
    service = tmp_path / "service"
    service.mkdir()
    (service / "api.py").write_text(SL201_SOURCE)


def test_lint_select_runs_only_matching_rules(tmp_path, capsys):
    """--select SL2 runs the whole-program layer and nothing else:
    the SL001-triggering randomness in the same tree stays silent."""
    _write_service_fixture(tmp_path)
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    assert main([
        "lint", str(tmp_path), "--baseline", "none",
        "--select", "SL2",
    ]) == 1
    out = capsys.readouterr().out
    assert "SL201" in out and "SL001" not in out


def test_lint_select_unknown_prefix_exits_two(capsys):
    assert main(["lint", "--select", "SLX"]) == 2
    assert "matches no rule" in capsys.readouterr().err


def test_lint_stats_summary(tmp_path, capsys):
    _write_service_fixture(tmp_path)
    assert main([
        "lint", str(tmp_path), "--baseline", "none",
        "--select", "SL2", "--stats",
    ]) == 1
    out = capsys.readouterr().out
    assert "new findings by rule: SL201=1" in out
    assert "call graph:" in out


def test_lint_sl2xx_baseline_round_trip(tmp_path, capsys):
    """A whole-program finding baselines and suppresses like any
    other: --update-baseline --justification, then a clean gate."""
    _write_service_fixture(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
        "--update-baseline",
        "--justification", "demo sleep in a fixture coroutine",
    ]) == 0
    capsys.readouterr()
    doc = json.loads(baseline.read_text())
    assert [e["rule"] for e in doc["entries"].values()] == ["SL201"]
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
    ]) == 0
    assert "baselined" in capsys.readouterr().out


def test_lint_upgraded_rule_id_is_not_silently_suppressed(tmp_path, capsys):
    """The fingerprint keys on the rule id: an entry baselined under
    one rule must not swallow the same line resurfacing under a new
    (e.g. upgraded whole-program) rule — and the stale entry is
    reported as unused."""
    from repro.lint import Baseline, Finding

    _write_service_fixture(tmp_path)
    old = Finding(
        rule="SL001", path="service/api.py", line=6,
        message="old-rule finding", snippet="time.sleep(1)",
    )
    baseline = tmp_path / "baseline.json"
    Baseline.from_findings(
        [old], justification="suppressed under the old rule id",
    ).save(baseline)
    assert main([
        "lint", str(tmp_path), "--baseline", str(baseline),
        "--select", "SL2",
    ]) == 1
    out = capsys.readouterr().out
    assert "SL201" in out
    assert "matched nothing" in out  # the SL001 entry is stale
