"""Command-line interface."""

import itertools
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.service.api import Service

from .service.harness import ServiceHarness


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "tpc-b" in out and "emesti" in out and "figure7" in out


def test_run_cell(capsys):
    assert main(["run", "radiosity", "--technique", "emesti",
                 "--scale", "0.02", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "ipc" in out


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "linpack"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "figure99"])


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_with_chrome_trace(tmp_path, capsys):
    # The acceptance path: a traced run exports a valid Chrome trace.
    trace = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    assert main(["run", "locks", "--technique", "emesti",
                 "--scale", "0.05", "--trace", str(trace)]) == 0
    assert main(["report", str(trace), "--chrome", str(chrome)]) == 0
    doc = json.loads(chrome.read_text())
    events = doc["traceEvents"]
    assert events, "trace must not be empty"
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts), "Chrome trace timestamps must be monotonic"
    for event in events:
        # i/X are instants and durations; b/e are span async pairs and
        # s/f their flow (parent-link) arrows.
        assert event["ph"] in ("i", "X", "b", "e", "s", "f")
        assert isinstance(event["ts"], int)
    assert any(e["ph"] == "b" for e in events), "span events expected"
    out = capsys.readouterr().out
    assert "trace:" in out


def test_run_with_trace_filter_and_ring(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "locks", "--technique", "emesti", "--scale", "0.05",
                 "--trace", str(trace), "--trace-filter", "kind=bus.grant",
                 "--trace-ring", "5"]) == 0
    *rows, trailer = [json.loads(l) for l in trace.read_text().splitlines()]
    assert 0 < len(rows) <= 5
    assert all(e["kind"] == "bus.grant" for e in rows)
    assert trailer["meta"] == "tracer"
    # The ring's overwrites are reported beside the filtered count.
    summary = capsys.readouterr().out.splitlines()[-1]
    match = re.search(r"(\d+) filtered, (\d+) overwritten\)$", summary)
    assert match and int(match.group(1)) > 0 and int(match.group(2)) > 0


def test_run_trace_trailer_records_ring_overwrites(tmp_path, capsys):
    # The file says what the ring lost: its trailer's dropped is the
    # overwritten count `run` prints, and the trailer loads cleanly.
    from repro.obs.report import load_trace

    trace = tmp_path / "t.jsonl"
    assert main(["run", "locks", "--technique", "emesti", "--scale", "0.05",
                 "--trace", str(trace), "--trace-ring", "300"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    overwritten = int(re.search(r"(\d+) overwritten\)$", summary).group(1))
    trailer = json.loads(trace.read_text().splitlines()[-1])
    assert trailer == {"meta": "tracer", "events": 300, "dropped": overwritten}
    assert overwritten > 0
    load = load_trace(trace)
    assert load.skipped == 0 and load.dropped == overwritten


def test_run_with_profile(capsys):
    # --profile leaves the run's summary byte for byte as it is, then
    # rolls cProfile's self time up by repro package and prints
    # pstats' table of the functions with the most self time.
    assert main(["run", "radiosity", "--scale", "0.02"]) == 0
    plain = capsys.readouterr().out
    assert main(["run", "radiosity", "--scale", "0.02", "--profile"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(plain)
    profile = out[len(plain):].splitlines()
    assert profile[0].split() == ["package", "self_s", "share"]
    rows = list(itertools.takewhile(lambda line: "%" in line, profile[1:]))
    packages = [row.split()[0] for row in rows]
    assert {"repro.cpu", "repro.memory", "repro.coherence"} <= set(packages)
    assert sum(float(row.split()[2].rstrip("%")) for row in rows) == pytest.approx(
        100, abs=0.1 * len(rows),
    )
    table = profile[1 + len(rows):]
    assert "function calls" in table[0]
    assert any(line.split()[:2] == ["ncalls", "tottime"] for line in table)


def test_report_command(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "locks", "--technique", "emesti", "--scale", "0.05",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "by kind:" in out and "bus.grant" in out


def test_report_prints_the_trailer_dropped(tmp_path, capsys):
    from repro.obs.tracer import Tracer

    tracer = Tracer(clock=lambda: 0, ring=2)
    for ts in range(5):
        tracer.emit("bus.grant", ts=ts)
    trace = tmp_path / "t.jsonl"
    tracer.save(trace)
    assert main(["report", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "dropped    : 3" in captured.out.splitlines()
    assert captured.err == ""  # loss is reported, not warned as damage


def test_explain_live_gates_and_reports(capsys):
    assert main(["explain", "locks", "--technique", "emesti+lvp",
                 "--scale", "0.1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "miss provenance" in out and "metrics reconciliation" in out
    assert "result: ok" in out


def test_explain_json_reconciles(capsys):
    assert main(["explain", "locks", "--technique", "emesti",
                 "--scale", "0.1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["misses"]["attribution_rate"] >= 0.95
    assert all(row["ok"] for row in doc["reconciliation"])
    assert "overwritten" not in doc  # no --trace-ring, no ring to report


def test_explain_reports_ring_overwrites(capsys):
    args = ["explain", "locks", "--technique", "emesti",
            "--scale", "0.1", "--trace-ring", "50"]
    # The ring keeps too few events to reconcile, and says why.
    assert main(args) == 1
    result = capsys.readouterr().out.splitlines()[-1]
    match = re.search(r"reconciliation MISMATCH, (\d+) overwritten\)$", result)
    assert match and int(match.group(1)) > 0
    assert main([*args, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["overwritten"] == int(match.group(1))


def test_explain_offline_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["explain", "locks", "--scale", "0.1",
                 "--save-trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["explain", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    # Offline there is no registry to reconcile against.
    assert "miss provenance" in out and "metrics reconciliation" not in out


def test_explain_offline_reports_the_saved_ring_overwrites(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["explain", "locks", "--technique", "emesti", "--scale",
                 "0.1", "--trace-ring", "50", "--save-trace", str(trace),
                 "--format", "json"]) == 1
    live = json.loads(capsys.readouterr().out)
    assert main(["explain", "--trace", str(trace), "--format", "json"]) == 0
    offline = json.loads(capsys.readouterr().out)
    assert live["overwritten"] > 0
    assert offline["overwritten"] == live["overwritten"]


def test_explain_line_drilldown(tmp_path, capsys):
    assert main(["explain", "locks", "--scale", "0.1",
                 "--line", "0x10080"]) == 0
    out = capsys.readouterr().out
    assert "0x10080" in out


def test_explain_without_benchmark_or_trace_errors(capsys):
    assert main(["explain"]) == 2
    assert "benchmark" in capsys.readouterr().err


def test_list_includes_extra_benchmarks(capsys):
    assert main(["list"]) == 0
    assert "locks" in capsys.readouterr().out


def test_quiet_and_verbose_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["-q", "-v", "list"])


def test_service_top_renders_a_live_server(tmp_path, capsys):
    with ServiceHarness(tmp_path, telemetry_interval=0) as harness:
        harness.service._sample_once()
        code = main(["service", "top", "--port", str(harness.port),
                     "--iterations", "1", "--no-clear"])
    assert code == 0
    assert "queue   : queued=0 leased=0" in capsys.readouterr().out


def test_service_postmortem_renders_a_flight_file(tmp_path, capsys):
    path = tmp_path / "flight.json"
    Service(tmp_path, telemetry_interval=0, flight_path=path)._sample_once()
    assert main(["service", "postmortem", str(path)]) == 0
    out = capsys.readouterr().out
    assert "queue   : queued=0 leased=0" in out
    assert "dropped : events=0 traces=0 telemetry=0" in out


def test_service_postmortem_rejects_missing_and_parent_format_files(
    tmp_path, capsys,
):
    assert main(["service", "postmortem", str(tmp_path / "none.json")]) == 1
    assert "none.json" in capsys.readouterr().err
    path = tmp_path / "flight.json"
    path.write_text(json.dumps({
        "format": 1, "recorded": 0, "events": [], "samples": [],
        "dropped": {"events": 0, "samples": 0},
    }))
    assert main(["service", "postmortem", str(path)]) == 1
    assert "not a schema-1 telemetry document" in capsys.readouterr().err


def test_serve_rejects_a_lease_ttl_that_is_not_positive(tmp_path, capsys):
    for ttl in ("0", "-1", "nan"):
        assert main(["serve", "--lease-ttl", ttl,
                     "--root", str(tmp_path / "state")]) == 2
        assert "--lease-ttl must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "state").exists()
