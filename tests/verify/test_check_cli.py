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
    # iterations (repro.verify.mutations.mutation_record).
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


def test_check_mutation_record_names_the_spec_protocol(capsys):
    # The fuzz campaign records the spec name too, so records from the
    # two can be joined on ``protocol``; the run keeps the logic's name.
    code = main([
        "check", "--protocol", "moesti", "--mutate", "validate-installs-m",
        "--no-litmus", "--format", "json",
    ])
    assert code == 1
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert runs
    for run in runs:
        assert run["mutation"]["protocol"] == "moesti"
        assert run["protocol"] == "MOESTI"


def test_check_escaped_mutation_exits_one(capsys, monkeypatch):
    # A mutation the checker misses is a failure of the verification
    # loop itself, not a success.
    from repro.verify import mutations

    # An equivalent mutant: ReadX fills already install M.
    monkeypatch.setitem(
        mutations.SEEDED, "no-op", ("fill-state", "ReadX", "M", "M"),
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
    # The reason is the coverage classifier's text for the dead row.
    err = capsys.readouterr().err
    assert "row remote:T:Read+flush is dead on the directory" in err
    assert "home never contacts T-sharers on reads" in err


def test_check_mutation_applying_nowhere_exits_two(capsys):
    assert main([
        "check", "--interconnect", "directory", "--mutate",
        "t-ignores-flush", "--no-litmus", "--format", "json",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for name in ("mesi", "moesi", "mesti", "moesti", "emesti"):
        assert f"skipping the directory run of {name}:" in captured.err
    assert "applies to none of the requested runs" in captured.err


def test_check_temporal_mutation_runs_every_temporal_protocol(capsys):
    """The default sweep skips only the protocols without a T state."""
    code = main([
        "check", "--mutate", "validate-installs-m", "--no-litmus",
        "--format", "json",
    ])
    assert code == 1  # every run catches the seeded bug
    captured = capsys.readouterr()
    runs = json.loads(captured.out)["runs"]
    assert [(r["protocol"], r["interconnect"]) for r in runs] == [
        (protocol, interconnect)
        for protocol in ("MESTI", "MOESTI", "E-MOESTI")
        for interconnect in ("bus", "directory")
    ]
    assert all(r["mutation"]["detected"] for r in runs)
    assert all(r["replay"]["ok"] is False for r in runs)
    for name in ("MESI", "MOESI"):
        assert f"{name} has no T state" in captured.err


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


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--depth", "--max-states"])
def test_check_rejects_vacuous_bounds(flag, bound, capsys):
    # A bound below 1 explores at most the initial state and would
    # report the protocol clean.
    assert main([
        "check", "--protocol", "mesi", "--interconnect", "bus",
        "--no-litmus", flag, bound,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be >= 1" in captured.err


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
