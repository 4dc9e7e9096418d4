"""The ``repro-sim check`` surface: exit codes and JSON shape."""

import json

import pytest

from repro.cli import build_parser, main


def test_check_clean_protocol_exits_zero(capsys):
    assert main(["check", "--protocol", "mesti", "--interconnect", "bus"]) == 0
    out = capsys.readouterr().out
    assert "ok: no violations" in out
    assert "states" in out and "coverage" in out
    assert "litmus" in out
    assert out.rstrip().endswith("result: ok")


def test_check_mutated_protocol_exits_one(capsys):
    code = main([
        "check", "--protocol", "moesti", "--interconnect", "bus",
        "--mutate", "validate-installs-m",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "VIOLATION swmr" in out
    assert "counterexample" in out
    assert "concrete replay: FAILED" in out


def test_check_json_for_ci(capsys):
    assert main([
        "check", "--protocol", "mesi", "--interconnect", "bus",
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    (run,) = doc["runs"]
    assert run["protocol"] == "MESI"
    assert run["complete"] is True
    assert run["states"] > 0
    assert run["coverage"]["missing"] == []
    assert all(r["ok"] for r in run["litmus"])


def test_check_json_mutated_carries_trace_and_replay(capsys):
    code = main([
        "check", "--protocol", "moesti", "--interconnect", "bus",
        "--mutate", "fill-exclusive-on-shared-read", "--format", "json",
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    (run,) = doc["runs"]
    (violation,) = run["violations"]
    assert violation["kind"] == "swmr"
    assert violation["trace"]
    assert run["replay"]["ok"] is False
    assert run["replay"]["failed_at"] == len(violation["trace"]) - 1


def test_check_mutated_json_carries_mutation_record(capsys):
    # The record schema is shared with the fuzz campaign's mutation
    # iterations (repro.fuzz.report.mutation_record).
    code = main([
        "check", "--protocol", "mesti", "--interconnect", "bus",
        "--mutate", "t-ignores-flush", "--format", "json",
    ])
    assert code == 1
    (run,) = json.loads(capsys.readouterr().out)["runs"]
    record = run["mutation"]
    assert record["name"] == "t-ignores-flush"
    assert record["seeded"] is True
    assert record["detected"] is True
    assert record["caught_as"] == "t-discipline"
    assert record["trace_len"] >= 1
    assert record["rows_reached"] == len(record["rows"]) > 0


def test_check_escaped_mutation_exits_one(capsys, monkeypatch):
    # A mutation the checker misses is a failure of the verification
    # loop itself, not a success.
    from repro.verify import mutations

    monkeypatch.setitem(
        mutations.MUTATIONS, "no-op", lambda protocol: None,
    )
    code = main([
        "check", "--protocol", "mesi", "--interconnect", "bus",
        "--mutate", "no-op",
    ])
    assert code == 1
    assert "ESCAPED" in capsys.readouterr().out


def test_check_bad_protocol_exits_two():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["check", "--protocol", "mosi"])
    assert exc.value.code == 2


def test_check_bad_mutation_exits_two(capsys):
    assert main(["check", "--protocol", "mesi", "--mutate", "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_temporal_mutation_on_plain_protocol_exits_two():
    assert main([
        "check", "--protocol", "mesi", "--interconnect", "bus",
        "--mutate", "t-ignores-flush",
    ]) == 2


def test_check_bus_only_mutation_on_directory_exits_two(capsys):
    assert main([
        "check", "--protocol", "mesti", "--interconnect", "directory",
        "--mutate", "t-ignores-flush",
    ]) == 2
    assert "needs a bus" in capsys.readouterr().err


def test_check_bus_only_mutation_skips_only_the_directory_run(capsys):
    code = main([
        "check", "--protocol", "mesti", "--interconnect", "both",
        "--mutate", "t-ignores-flush", "--format", "json", "--no-replay",
    ])
    assert code == 1  # caught on the bus, as a seeded bug must be
    captured = capsys.readouterr()
    (run,) = json.loads(captured.out)["runs"]
    assert run["interconnect"] == "bus"
    assert run["mutation"]["detected"] is True
    assert "skipping the directory run" in captured.err


def test_check_bounded_run_flagged(capsys):
    assert main([
        "check", "--protocol", "mesi", "--interconnect", "bus",
        "--depth", "2", "--no-litmus",
    ]) == 0
    assert "NOT exhaustive" in capsys.readouterr().out


def test_run_check_invariants_flag(capsys):
    assert main([
        "run", "locks", "--technique", "emesti", "--scale", "0.05",
        "--check-invariants",
    ]) == 0
    out = capsys.readouterr().out
    assert "invariant_checks" in out
    line = next(l for l in out.splitlines() if "invariant_checks" in l)
    assert float(line.split(":")[1]) > 0
