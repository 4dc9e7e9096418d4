"""Trace reading and summarization (``repro-sim report``)."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.obs.report import load_trace, render_report, summarize_trace
from repro.obs.tracer import Tracer, chrome_document


def make_tracer():
    tracer = Tracer(clock=lambda: 0)
    tracer.emit("bus.grant", node=0, base=0x40, ts=3, txn="read")
    tracer.emit("bus.grant", node=1, base=0x40, ts=9, txn="upgrade")
    tracer.emit("mem.miss", node=0, base=0x80, ts=1, dur=50, store=False)
    return tracer


class TestReadTrace:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = make_tracer()
        path = tmp_path / "t.jsonl"
        tracer.save(path)
        load = load_trace(path)
        assert load.skipped == 0 and load.dropped == 0
        events = load.events
        assert [e.kind for e in events] == [e.kind for e in tracer.events]
        assert events[0].base == 0x40
        assert events[2].fields["dur"] == 50

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_trace(path).events == []

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ConfigError):
            load_trace(path)

    def test_rejects_a_chrome_document(self, tmp_path):
        # A traced run's Chrome document, indented, on one line (as
        # `report --chrome` writes it) or as Chrome's bare array, holds
        # no trace row: none of them is a trace file.
        from repro.common.config import scaled_config
        from repro.system.system import System
        from repro.system.techniques import configure_technique
        from repro.workloads.registry import get_benchmark

        tracer = Tracer()
        System(
            configure_technique(scaled_config(), "emesti"),
            get_benchmark("locks", scale=0.02), seed=1, tracer=tracer,
        ).run()
        doc = chrome_document(tracer.events)
        path = tmp_path / "t.json"
        for text in (json.dumps(doc, indent=1), json.dumps(doc) + "\n",
                     json.dumps(doc["traceEvents"])):
            path.write_text(text)
            with pytest.raises(ConfigError, match="not a span-event"):
                load_trace(path)


class TestTolerantLoading:
    def test_empty_file_is_an_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        load = load_trace(path)
        assert load.events == [] and load.skipped == 0 and load.dropped == 0

    def test_truncated_final_line_costs_one_event(self, tmp_path):
        # The classic interrupted-run artifact: the writer died mid-line.
        path = tmp_path / "t.jsonl"
        good = make_tracer().to_jsonl()
        path.write_text(good + '{"ts": 12, "ki')
        load = load_trace(path)
        assert len(load.events) == 3
        assert load.skipped == 1

    def test_malformed_middle_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([
            '{"ts": 1, "kind": "bus.grant", "node": 0}',
            "not json",
            '{"no_ts_or_kind": true}',
            '[1, 2]',
            '{"ts": 2, "kind": "bus.cancel"}',
        ]))
        load = load_trace(path)
        assert [e.kind for e in load.events] == ["bus.grant", "bus.cancel"]
        assert load.skipped == 3

    def test_trailer_records_the_ring_loss(self, tmp_path):
        # The trailer is read, not skipped, even when it is all there is.
        tracer = Tracer(clock=lambda: 0, ring=2)
        for ts in range(5):
            tracer.emit("bus.grant", ts=ts)
        path = tmp_path / "t.jsonl"
        tracer.save(path)
        load = load_trace(path)
        assert [e.ts for e in load.events] == [3, 4]
        assert load.skipped == 0 and load.dropped == 3
        Tracer().save(path)  # a trailer alone is an empty trace
        load = load_trace(path)
        assert load.events == [] and load.skipped == 0


class TestSummarize:
    def test_counts_and_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        make_tracer().save(path)
        summary = summarize_trace(load_trace(path).events)
        assert summary["events"] == 3 and summary["dropped"] == 0
        assert summary["first_ts"] == 1 and summary["last_ts"] == 9
        assert summary["kinds"]["bus.grant"] == 2
        assert summary["nodes"] == {"P0": 2, "P1": 1}
        assert summary["hot_lines"]["0x40"] == 2

    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary["events"] == 0
        assert summary["first_ts"] == 0 and summary["last_ts"] == 0

    def test_render(self):
        text = render_report(summarize_trace(make_tracer().events, dropped=4))
        assert "dropped    : 4" in text
        assert "bus.grant" in text
        assert "P1" in text
        assert "0x40" in text
