"""Spans: begin/end pairing, ring-buffer truncation, crash safety,
Chrome flow export."""

import json

import pytest

from repro.obs.report import load_trace
from repro.obs.spans import collect_spans
from repro.obs.tracer import NULL_TRACER, SPAN_ID_BITS, Tracer, chrome_document


class TestSpanAPI:
    def test_begin_end_pairs_into_one_span(self):
        tracer = Tracer(clock=lambda: 0)
        sid = tracer.span_begin("txn", node=1, base=0x100, ts=5, txn="Read")
        tracer.span_end(sid, node=1, base=0x100, ts=9, shared=True)
        stream = collect_spans(tracer.events)
        assert stream.truncated == 0 and stream.open == 0
        (span,) = stream.spans
        assert span.name == "txn" and span.begin == 5 and span.end == 9
        assert span.dur == 4
        assert span.fields["txn"] == "Read" and span.fields["shared"] is True

    def test_parent_links_children(self):
        tracer = Tracer(clock=lambda: 0)
        parent = tracer.span_begin("miss", ts=0)
        child = tracer.span_begin("txn", parent=parent, ts=1)
        tracer.span_end(child, ts=2)
        tracer.span_end(parent, ts=3)
        stream = collect_spans(tracer.events)
        assert [s.span for s in stream.children(parent)] == [child]

    def test_context_manager_closes_on_exception(self):
        tracer = Tracer(clock=lambda: 7)
        with pytest.raises(RuntimeError):
            with tracer.span("validate", node=0):
                raise RuntimeError("boom")
        assert collect_spans(tracer.events).open == 0

    def test_null_tracer_span_api_is_inert(self):
        sid = NULL_TRACER.span_begin("txn", node=1)
        assert sid is None
        NULL_TRACER.span_end(sid)  # must not raise
        with NULL_TRACER.span("miss"):
            pass

    def test_span_end_none_is_noop(self):
        tracer = Tracer(clock=lambda: 0)
        tracer.span_end(None)
        assert len(tracer.events) == 0


class TestRingTruncation:
    def test_evicted_begin_counts_as_truncated(self):
        # A ring small enough to evict span.begin events must degrade
        # with an explicit marker, never a crash or a silent mismatch.
        tracer = Tracer(clock=lambda: 0, ring=4)
        sids = [tracer.span_begin("txn", ts=i) for i in range(6)]
        for i, sid in enumerate(sids):
            tracer.span_end(sid, ts=10 + i)
        stream = collect_spans(tracer.events)
        assert stream.truncated > 0
        doc = chrome_document(tracer.events)
        assert doc["metadata"]["spans_truncated"] == stream.truncated

    def test_truncation_marker_in_chrome_metadata(self):
        tracer = Tracer(clock=lambda: 0, ring=4)
        for i in range(6):
            sid = tracer.span_begin("txn", ts=i)
            if i == 0:
                first = sid
        tracer.span_end(first, ts=99)
        doc = chrome_document(tracer.events)
        assert doc["metadata"]["spans_truncated"] >= 1

    def test_untruncated_ring_keeps_pairing(self):
        tracer = Tracer(clock=lambda: 0, ring=100)
        for i in range(10):
            sid = tracer.span_begin("txn", ts=i)
            tracer.span_end(sid, ts=i + 1)
        stream = collect_spans(tracer.events)
        assert stream.truncated == 0 and len(stream.spans) == 10


class TestCrashSafety:
    def test_exception_inside_context_still_writes_trace(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        with pytest.raises(RuntimeError):
            with Tracer(clock=lambda: 0, path=str(path)) as tracer:
                tracer.emit("bus.grant", node=0, base=0x100)
                raise RuntimeError("simulated crash")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["kind"] for e in lines[:-1]] == ["bus.grant"]
        assert lines[-1] == {"meta": "tracer", "events": 1, "dropped": 0}

    def test_close_is_idempotent_and_saves(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(clock=lambda: 0, path=str(path))
        tracer.emit("mem.miss", node=1)
        tracer.close()
        tracer.close()
        assert "mem.miss" in path.read_text()

    def test_atexit_flush_writes_the_trailer(self, tmp_path):
        # The sink a dying process flushes is the same file format,
        # its ring loss included.
        path = tmp_path / "t.jsonl"
        tracer = Tracer(clock=lambda: 0, ring=2, path=str(path))
        for kind in ("bus.grant", "bus.cancel", "mem.miss"):
            tracer.emit(kind)
        tracer._atexit_flush()
        load = load_trace(path)
        assert load.skipped == 0 and load.dropped == 1
        assert [e.kind for e in load.events] == ["bus.cancel", "mem.miss"]
        tracer.close()

    def test_atexit_flush_swallows_write_errors(self, tmp_path):
        tracer = Tracer(clock=lambda: 0, path=str(tmp_path / "d" / "t.jsonl"))
        tracer.emit("x")
        tracer._atexit_flush()  # missing directory: must not raise


class TestChromeRoundTrip:
    def _traced_tracer(self):
        tracer = Tracer(clock=lambda: 0)
        parent = tracer.span_begin("miss", node=0, base=0x100, ts=1)
        child = tracer.span_begin("txn", node=0, base=0x100, ts=2, parent=parent)
        tracer.emit("bus.grant", node=0, base=0x100, ts=3, txn="Read")
        tracer.span_end(child, ts=4)
        tracer.span_end(parent, ts=5, cause="cold")
        return tracer

    def test_flow_records_emitted(self):
        doc = chrome_document(self._traced_tracer().events)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("b") == 2 and phases.count("e") == 2
        assert "s" in phases and "f" in phases  # parent-link flow pair


class TestTraceContext:
    """A tracer opened under the service's trace context writes
    job-trace rows: ids in the run span's block, roots under it."""

    def test_spans_number_in_the_run_block_and_roots_parent_under_it(self):
        tracer = Tracer(clock=lambda: 0, context={"trace": "t-1", "span": 7})
        miss = tracer.span_begin("miss", node=1, base=0x100, ts=10)
        txn = tracer.span_begin("txn", parent=miss, ts=11, txn="Read")
        tracer.span_end(txn, ts=12, shared=True)
        tracer.span_end(miss, ts=14)
        assert miss == (7 << SPAN_ID_BITS) + 1 and txn == miss + 1
        begins = [r for r in tracer.rows() if r["kind"] == "span.begin"]
        assert [r["parent"] for r in begins] == [7, miss]
        assert all(r["trace"] == "t-1" and r["clock"] == "cycles"
                   for r in begins)
        # End rows keep their own fields; folding merges them as ever.
        stream = collect_spans(tracer.events)
        assert stream.by_id[txn].fields["shared"] is True
        assert stream.by_id[miss].dur == 4

    def test_run_cell_ships_its_rows_through_a_counting_ring(
        self, monkeypatch,
    ):
        from repro.common.config import scaled_config
        from repro.experiments import runner

        config = runner.cell_config(scaled_config(), "emesti")
        context = {"trace": "t-1", "span": 3}
        full = runner.run_cell(config, "locks", 0.02, 1, trace=context)["trace"]
        assert full["dropped"] == 0
        rows = full["rows"]
        assert {r["kind"] for r in rows} == {"span.begin", "span.end"}
        begins = [r for r in rows if r["kind"] == "span.begin"]
        ids = {r["span"] for r in begins}
        assert all(sid >> SPAN_ID_BITS == 3 for sid in ids)
        assert all(r["parent"] == 3 or r["parent"] in ids for r in begins)
        assert any(r["parent"] == 3 for r in begins)
        assert all(r["trace"] == "t-1" and r["clock"] == "cycles"
                   for r in begins)
        # A capped cell keeps its newest rows and counts the rest.
        monkeypatch.setattr(runner, "CELL_TRACE_ROWS", 10)
        capped = runner.run_cell(config, "locks", 0.02, 1, trace=context)["trace"]
        assert capped["rows"] == rows[-10:]
        assert capped["dropped"] == len(rows) - 10
