"""The ``repro-sim fuzz`` surface: exit codes, formats, report file."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

FAST = ["fuzz", "--seed", "1", "--budget", "8"]


def test_clean_campaign_exits_zero(capsys):
    assert main(FAST) == 0
    out = capsys.readouterr().out
    assert "result: CLEAN" in out


def test_json_format_is_the_report_document(capsys):
    assert main(FAST + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fuzz"] is True
    assert doc["ok"] is True
    assert doc["seed"] == 1 and doc["budget"] == 8


def test_output_file_written(tmp_path, capsys):
    path = tmp_path / "fuzz.json"
    assert main(FAST + ["--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["ok"] is True
    # Text summary still goes to stdout.
    assert "result: CLEAN" in capsys.readouterr().out


def test_zero_budget_exits_two(capsys):
    assert main(["fuzz", "--budget", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_negative_workers_exits_two(capsys):
    assert main(["fuzz", "--workers", "-1"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_protocol_exits_two():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["fuzz", "--protocols", "mosi"])
    assert exc.value.code == 2


def test_duplicate_protocols_deduped(capsys):
    assert main(FAST + ["--protocols", "mesi", "mesi", "mesti",
                        "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["protocols"] == ["mesi", "mesti"]


@pytest.mark.parametrize("flag", ["--no-minimize", "--no-replay"])
def test_minimize_and_replay_cannot_be_switched_off(flag, capsys):
    """Every campaign minimizes its findings and replays its
    witnesses, so the flags that skipped either are gone."""
    with pytest.raises(SystemExit) as exc:
        main([*FAST, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
