"""FlightRecorder: buffering, atomic flush, debounce, postmortem."""

from __future__ import annotations

import json

import pytest

from repro.obs.flight import (
    FLIGHT_FORMAT,
    FlightRecorder,
    load_flight,
    render_postmortem,
)


def _recorder(tmp_path, **kwargs):
    ticks = iter(x / 10 for x in range(1, 10_000))
    return FlightRecorder(
        tmp_path / "flight.json", clock=lambda: next(ticks), **kwargs,
    )


class TestBuffering:
    def test_event_sample_note_rings_are_bounded(self, tmp_path):
        rec = _recorder(tmp_path, events=2, samples=2, notes=2)
        for i in range(4):
            rec.record_event({"seq": i, "event": "cell.finished"})
            rec.record_sample({"ts": i})
            rec.note("n", i=i)
        doc = rec.snapshot()
        assert [e["seq"] for e in doc["events"]] == [2, 3]
        assert len(doc["samples"]) == 2 and len(doc["notes"]) == 2
        assert doc["recorded"] == 4

    def test_snapshot_copies_records(self, tmp_path):
        rec = _recorder(tmp_path)
        rec.record_event({"seq": 1, "event": "cell.finished"})
        rec.snapshot()["events"][0]["seq"] = 99
        assert rec.snapshot()["events"][0]["seq"] == 1


class TestFlush:
    def test_flush_writes_atomic_parseable_document(self, tmp_path):
        rec = _recorder(tmp_path)
        rec.record_event({"seq": 1, "event": "job.enqueued", "job": "j1"})
        assert rec.flush() is True
        doc = load_flight(tmp_path / "flight.json")
        assert doc["format"] == FLIGHT_FORMAT
        assert doc["events"][0]["job"] == "j1"
        assert [p.name for p in tmp_path.iterdir()] == ["flight.json"]

    def test_flush_skips_when_clean(self, tmp_path):
        rec = _recorder(tmp_path)
        rec.record_event({"seq": 1, "event": "cell.finished"})
        assert rec.flush() is True
        assert rec.flush() is False  # nothing new

    def test_flush_debounces_within_min_interval(self, tmp_path):
        rec = _recorder(tmp_path, min_interval=1000.0)
        rec.record_event({"seq": 1, "event": "cell.finished"})
        assert rec.flush() is True
        rec.record_event({"seq": 2, "event": "cell.finished"})
        assert rec.flush() is False  # dirty, but inside the window
        assert rec.flush(force=True) is True

    def test_close_forces_final_flush(self, tmp_path):
        rec = _recorder(tmp_path, min_interval=1000.0)
        rec.record_event({"seq": 1, "event": "cell.finished"})
        rec.flush()
        rec.record_event({"seq": 2, "event": "cell.finished"})
        rec.close()
        doc = load_flight(tmp_path / "flight.json")
        assert [e["seq"] for e in doc["events"]] == [1, 2]

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "not-flight.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a flight-recorder"):
            load_flight(path)


class TestPostmortem:
    def _doc(self):
        return {
            "format": FLIGHT_FORMAT,
            "recorded": 6,
            "events": [
                {"seq": 1, "event": "job.enqueued", "job": "job-1",
                 "cells": 2},
                {"seq": 2, "event": "cell.leased", "fingerprint": "f0"},
                {"seq": 3, "event": "job.enqueued", "job": "job-2",
                 "cells": 1},
                {"seq": 4, "event": "job.completed", "job": "job-2",
                 "reason": "done"},
            ],
            "samples": [
                {"ts": 5.0, "queued": 3, "leased": 1, "busy": 1,
                 "workers": 2, "utilization": 0.5},
            ],
            "notes": [{"ts": 4.0, "note": "events.dropped", "dropped": 1}],
        }

    def test_interrupted_job_is_flagged(self):
        text = render_postmortem(self._doc())
        assert "job-1" in text and "<- interrupted" in text
        # The cleanly finished job is not flagged.
        job2_line = next(x for x in text.splitlines() if "job-2" in x)
        assert "interrupted" not in job2_line

    def test_vitals_notes_and_tail_rendered(self):
        text = render_postmortem(self._doc(), tail=2)
        assert "queued=3" in text and "utilization=0.5" in text
        assert "events.dropped (dropped=1)" in text
        assert "newest 2 events:" in text
        assert "job.completed" in text

    def test_empty_document_renders(self):
        text = render_postmortem({"format": FLIGHT_FORMAT})
        assert "(none recorded)" in text
