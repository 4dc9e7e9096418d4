"""The ``repro-sim lint`` surface: exit codes, formats, rule selection."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

BAD_SOURCE = '"""Fixture."""\nimport random\n\n\ndef roll():\n    return random.random()\n'


def test_lint_clean_tree_exits_zero(capsys, monkeypatch, shipped_tree_lint):
    """The shipped tree lints clean."""
    import repro.lint

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
    assert kwargs == {"paths": None, "rules": None}


def test_lint_violation_exits_one(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "SL001" in out and "finding(s)" in out


def test_lint_bad_rule_exits_two(capsys):
    assert main(["lint", "--rule", "SL999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_lint_json_output(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    code = main(["lint", str(tmp_path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is False
    assert doc["findings"][0]["rule"] == "SL001"
    assert "audit" not in doc


def test_lint_rule_filter(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    assert main(["lint", str(tmp_path), "--rule", "SL003"]) == 0
    assert "simlint: clean" in capsys.readouterr().out


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


@pytest.mark.parametrize("args", [
    ["--baseline", "none"],
    ["--update-baseline"],
    ["--justification", "x"],
    ["--select", "SL2"],
])
def test_lint_baseline_and_select_are_unknown_options(args, capsys):
    """A finding is fixed or excused in the source, so the baseline
    file's flags are gone; --rule took --select's id prefixes."""
    with pytest.raises(SystemExit) as exc:
        main(["lint", *args])
    assert exc.value.code == 2
    # The flag's value, if any, parses as a path.
    assert f"unrecognized arguments: {args[0]}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --rule prefixes and --stats
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


def test_lint_rule_prefix_runs_only_matching_rules(tmp_path, capsys):
    """--rule SL2 runs the whole-program layer and nothing else:
    the SL001-triggering randomness in the same tree stays silent."""
    _write_service_fixture(tmp_path)
    (tmp_path / "mod.py").write_text(BAD_SOURCE)
    assert main(["lint", str(tmp_path), "--rule", "SL2"]) == 1
    out = capsys.readouterr().out
    assert "SL201" in out and "SL001" not in out


def test_lint_rule_prefix_matching_no_rule_exits_two(capsys):
    assert main(["lint", "--rule", "SLX"]) == 2
    assert "matches no rule" in capsys.readouterr().err


def test_lint_stats_summary(tmp_path, capsys):
    _write_service_fixture(tmp_path)
    assert main(["lint", str(tmp_path), "--rule", "SL2", "--stats"]) == 1
    out = capsys.readouterr().out
    assert "stats: findings by rule: SL201=1" in out
    assert "call graph:" in out
