"""JobTraceStore: minting, ingest, bounds, eviction, JSONL export."""

from __future__ import annotations

import json
import threading

from repro.obs import jobtrace
from repro.obs.jobtrace import JobTraceStore
from repro.obs.tracer import SPAN_ID_BITS, Tracer


def _store(monkeypatch=None, **caps):
    """A store on a tick clock; ``caps`` shrink the module's
    ``MAX_TRACES``/``MAX_EVENTS`` for the test."""
    for name, value in caps.items():
        monkeypatch.setattr(jobtrace, name, value)
    ticks = iter(range(1, 10_000))
    return JobTraceStore(clock=lambda: next(ticks))


class TestMinting:
    def test_span_ids_are_unique_and_rows_recorded(self):
        store = _store()
        a = store.span_begin("t-1", "job", job="job-1")
        b = store.span_begin("t-1", "cell.lease", parent=a, worker="w0")
        assert a != b
        store.span_end("t-1", b, outcome="done")
        store.span_end("t-1", a, reason="done")
        rows = store.events("t-1")
        assert [r["kind"] for r in rows] == [
            "span.begin", "span.begin", "span.end", "span.end",
        ]
        assert rows[1]["parent"] == a
        assert all(r["trace"] == "t-1" for r in rows if "trace" in r)

    def test_span_end_none_is_noop(self):
        store = _store()
        store.span_end("t-1", None)
        assert store.events("t-1") == []

    def test_minting_is_thread_safe(self):
        store = JobTraceStore()
        ids: list[int] = []
        lock = threading.Lock()

        def mint():
            got = [store.span_begin("t-1", "cell.lease") for _ in range(200)]
            with lock:
                ids.extend(got)

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 800


class TestIngest:
    def test_worker_spans_get_cycle_clock_rows(self):
        store = _store()
        run = store.span_begin("t-1", "cell.run")
        worker = Tracer(clock=lambda: 0, context={"trace": "t-1", "span": run})
        miss = worker.span_begin("miss", node=2, base=0x100, ts=10, cause="comm")
        worker.span_begin("stall", parent=miss, ts=15)
        worker.span_end(miss, ts=20)
        store.ingest("t-1", worker.rows())
        rows = store.events("t-1")
        # The worker's rows are appended as its tracer wrote them.
        assert rows[1:] == worker.rows()
        begins = [r for r in rows if r.get("clock") == "cycles"]
        assert [r["name"] for r in begins] == ["miss", "stall"]
        assert all(r["trace"] == "t-1" for r in begins)
        assert begins[0]["cause"] == "comm" and begins[0]["node"] == 2
        # Ids sit in the run span's block; the root parents under it.
        assert begins[0]["span"] == (run << SPAN_ID_BITS) + 1
        assert begins[0]["parent"] == run
        assert begins[1]["parent"] == begins[0]["span"]
        # Only the closed worker span has an end row.
        ends = [r["span"] for r in rows if r["kind"] == "span.end"]
        assert ends == [begins[0]["span"]]

    def test_ingest_truncation_is_accounted(self):
        store = _store()
        store.ingest("t-1", [], dropped=7)
        assert store.dropped("t-1") == 7
        assert store.stats()["dropped"] == 7


class TestBounds:
    def test_per_trace_event_cap_drops_and_counts(self, monkeypatch):
        store = _store(monkeypatch, MAX_EVENTS=3)
        sids = [store.span_begin("t-1", "cell.lease") for _ in range(5)]
        assert len(store.events("t-1")) == 3
        assert store.dropped("t-1") == 2
        # Like every ring, the trace keeps its newest rows.
        assert [r["span"] for r in store.events("t-1")] == sids[2:]

    def test_oldest_trace_evicted_whole(self, monkeypatch):
        store = _store(monkeypatch, MAX_TRACES=2)
        for i in range(3):
            store.span_begin(f"t-{i}", "job")
        assert store.traces() == ["t-1", "t-2"]
        assert not store.has("t-0")
        assert store.events("t-0") == []

    def test_stats_summarize_occupancy(self, monkeypatch):
        store = _store(monkeypatch, MAX_EVENTS=2)
        store.span_begin("t-1", "job")
        for _ in range(4):
            store.span_begin("t-2", "cell.lease")
        assert store.stats() == {
            "traces": 2, "events": 3, "dropped": 2, "evicted": 0,
        }

    def test_eviction_keeps_the_drop_total_and_counts_the_trace(self, monkeypatch):
        store = _store(monkeypatch, MAX_TRACES=1, MAX_EVENTS=2)
        for _ in range(3):
            store.span_begin("t-0", "cell.lease")
        assert store.stats()["dropped"] == 1
        store.span_begin("t-1", "job")  # evicts t-0, drops and all
        assert not store.has("t-0")
        stats = store.stats()
        assert stats["dropped"] == 1
        assert stats["evicted"] == 1


class TestExport:
    def test_jsonl_ends_with_meta_trailer(self):
        store = _store()
        sid = store.span_begin("t-1", "job", job="job-1")
        store.span_end("t-1", sid, reason="done")
        lines = [json.loads(x) for x in store.to_jsonl("t-1").splitlines()]
        assert lines[-1] == {
            "meta": "job-trace", "trace": "t-1", "events": 2, "dropped": 0,
        }
        assert lines[0]["kind"] == "span.begin"

    def test_jsonl_loads_through_report_loader(self, tmp_path):
        from repro.obs.report import load_trace

        store = _store()
        sid = store.span_begin("t-1", "job", job="job-1")
        store.span_end("t-1", sid, reason="done")
        path = tmp_path / "trace.jsonl"
        path.write_text(store.to_jsonl("t-1"))
        load = load_trace(path)
        # The meta trailer is read, not skipped.
        assert load.skipped == 0 and load.dropped == 0
        assert [e.kind for e in load.events] == ["span.begin", "span.end"]

    def test_capped_trace_loads_with_its_dropped_count(self, tmp_path, monkeypatch):
        from repro.obs.report import load_trace

        store = _store(monkeypatch, MAX_EVENTS=3)
        for n in range(3):
            store.span_end("t-1", store.span_begin("t-1", "job", job=n))
        path = tmp_path / "trace.jsonl"
        path.write_text(store.to_jsonl("t-1"))
        load = load_trace(path)
        assert load.skipped == 0 and len(load.events) == 3
        assert load.dropped == store.dropped("t-1") == 3

    def test_unknown_trace_exports_empty_trailer(self):
        store = _store()
        lines = [json.loads(x) for x in store.to_jsonl("nope").splitlines()]
        assert lines == [
            {"meta": "job-trace", "trace": "nope", "events": 0, "dropped": 0},
        ]
