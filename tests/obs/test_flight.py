"""The flight file: the ``/telemetry`` document, kept on disk.

``serve --flight PATH`` rewrites :meth:`Service.telemetry_document`,
with a :data:`~repro.service.api.FLIGHT_EVENT_TAIL`-record event tail,
to PATH on every sampler tick and once more at stop, so a server
killed at any point leaves a whole, parseable document that
``repro-sim service postmortem PATH`` renders.  The faults run in
process: a held executor keeps a cell running while the test reads
the file of a service it has not stopped.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import Executor, Future

import pytest

from repro.cli import main
from repro.service.api import (
    FLIGHT_EVENT_TAIL,
    TELEMETRY_EVENT_TAIL,
    TELEMETRY_SAMPLES,
    Service,
)
from repro.service.top import load_telemetry, render_postmortem

from ..service.harness import ServiceHarness

SPEC = {
    "benchmarks": ["radiosity"],
    "techniques": ["base"],
    "seeds": [1],
    "scale": 0.05,
}


class HeldExecutor(Executor):
    """Takes every cell and finishes none until the test sets its
    result: a cell that runs for as long as the test needs."""

    def __init__(self):
        self.futures: list[Future] = []
        self.submitted = threading.Event()

    def submit(self, fn, /, *args, **kwargs):
        """Hold the cell: its future stays pending."""
        future: Future = Future()
        self.futures.append(future)
        self.submitted.set()
        return future

    def release(self) -> None:
        """Finish every held cell with a stub summary."""
        for future in self.futures:
            if not future.done():
                future.set_result({"cycles": 1})


def _flight_service(tmp_path) -> Service:
    return Service(
        tmp_path / "state", telemetry_interval=0,
        flight_path=tmp_path / "flight.json",
    )


def _postmortem(path, capsys) -> str:
    """``repro-sim service postmortem PATH``'s output (exit 0)."""
    assert main(["service", "postmortem", str(path)]) == 0
    return capsys.readouterr().out


def _wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.02)


class TestBuffering:
    def test_event_and_sample_rings_are_bounded(self, tmp_path):
        # The file holds the newest FLIGHT_EVENT_TAIL events and the
        # telemetry ring, and counts what the ring overwrote.
        service = _flight_service(tmp_path)
        emitted = FLIGHT_EVENT_TAIL + 2
        for i in range(emitted):
            service.events.emit("cell.finished", fingerprint=f"f{i}")
        for ts in range(TELEMETRY_SAMPLES):
            service.telemetry.append({"ts": ts})
        service._sample_once()
        doc = load_telemetry(tmp_path / "flight.json")
        assert [r["seq"] for r in doc["events"]] == list(
            range(3, emitted + 1),
        )
        assert len(doc["samples"]) == doc["capacity"] == TELEMETRY_SAMPLES
        assert doc["recorded"] == TELEMETRY_SAMPLES + 1
        assert doc["samples"][0] == {"ts": 1}
        assert "telemetry=1" in render_postmortem(doc)


class TestFlush:
    def test_flush_writes_atomic_parseable_document(self, tmp_path):
        service = _flight_service(tmp_path)
        service.events.emit("job.enqueued", job="j1", cells=1)
        service._sample_once()
        doc = load_telemetry(tmp_path / "flight.json")
        # The /telemetry document (one event: both tails hold it).
        served = service.telemetry_document(TELEMETRY_EVENT_TAIL)
        assert doc == json.loads(json.dumps(served))
        assert doc["events"][0]["job"] == "j1"
        # Written through a temp file and a rename: nothing else is left.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "flight.json", "state",
        ]

    def test_close_forces_final_flush(self, tmp_path):
        # stop() takes one last sample and writes it, even with the
        # sampler off.
        service = _flight_service(tmp_path)

        async def run():
            await service.start(port=0)
            await service.stop()

        asyncio.run(run())
        doc = load_telemetry(tmp_path / "flight.json")
        assert doc["recorded"] == 1
        assert doc["latest"]["jobs_active"] == 0

    def test_a_stalled_tick_cannot_replace_a_later_sample(
        self, tmp_path, monkeypatch,
    ):
        # A sampler tick still writing when stop() samples must not
        # land its older document last.
        from repro.service import api

        service = _flight_service(tmp_path)
        write = api.atomic_write
        writing, resume = threading.Event(), threading.Event()

        def stall_the_first_write(path, text):
            if not writing.is_set():
                writing.set()
                resume.wait(timeout=30)
            write(path, text)

        monkeypatch.setattr(api, "atomic_write", stall_the_first_write)
        tick = threading.Thread(target=service._sample_once)
        tick.start()
        final = threading.Thread(target=service._sample_once)
        try:
            assert writing.wait(timeout=30)
            final.start()
            _wait_until(lambda: len(service.telemetry) == 2)
        finally:
            resume.set()
            tick.join(timeout=30)
            if final.is_alive():
                final.join(timeout=30)
        assert not tick.is_alive() and not final.is_alive()
        assert load_telemetry(tmp_path / "flight.json")["recorded"] == 2

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "not-flight.json"
        for doc in (
            {"hello": 1},
            [1, 2],
            # What the flight recorder wrote before it was folded away.
            {"format": 1, "recorded": 0, "events": [], "samples": [],
             "dropped": {"events": 0, "samples": 0}},
        ):
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="not a schema-1 telemetry"):
                load_telemetry(path)


def _doc():
    """A flight file: job-1 never completed, job-2 did."""
    return {
        "schema": 1,
        "capacity": 720,
        "recorded": 9,
        "latest": {"queued": 3, "leased": 1, "busy": 1, "workers": 2,
                   "utilization": 0.5},
        "samples": [{"queued": 3, "leased": 1, "busy": 1, "workers": 2,
                     "utilization": 0.5}],
        "events": [
            {"seq": 1, "event": "job.enqueued", "job": "job-1",
             "cells": 2},
            {"seq": 2, "event": "cell.leased", "fingerprint": "f0"},
            {"seq": 3, "event": "job.enqueued", "job": "job-2",
             "cells": 1},
            {"seq": 4, "event": "job.completed", "job": "job-2",
             "reason": "done"},
        ],
        "event_ring": {"records": 4, "capacity": 100_000, "dropped": 2},
        "traces": {"traces": 2, "events": 10, "dropped": 3, "evicted": 0},
    }


class TestPostmortem:
    def test_interrupted_job_is_flagged(self):
        text = render_postmortem(_doc())
        job1 = next(x for x in text.splitlines() if x.startswith("  job-1"))
        assert job1.endswith("<- interrupted")
        # The cleanly finished job is not flagged.
        job2 = next(x for x in text.splitlines() if x.startswith("  job-2"))
        assert "done" in job2 and "interrupted" not in job2

    def test_vitals_overwrites_and_tail_rendered(self):
        text = render_postmortem(_doc(), tail=2)
        assert "queued=3" in text and "utilization=0.5" in text
        # Each ring's overwrites: 9 samples recorded, 1 retained.
        assert "dropped : events=2 traces=3 telemetry=8" in text
        assert "newest 2 events:" in text
        assert "job.completed" in text and "cell.leased" not in text

    def test_a_zero_tail_shows_no_events(self):
        text = render_postmortem(_doc(), tail=0)
        assert "newest" not in text and "seq      4" not in text
        # The job states still read the whole file.
        assert "job-1" in text and "<- interrupted" in text

    def test_empty_document_renders(self):
        text = render_postmortem({"schema": 1})
        assert "(no telemetry samples yet)" in text
        assert "dropped : events=0 traces=0 telemetry=0" in text
        assert "jobs (last known state)" not in text


class TestKilledServer:
    def test_unstopped_service_flags_its_running_job(self, tmp_path, capsys):
        path = tmp_path / "flight.json"
        held = HeldExecutor()
        harness = ServiceHarness(
            tmp_path / "state", executor=held, flight_path=path,
            telemetry_interval=0,
        )
        try:
            service = harness.service
            job = service.queue.submit(SPEC)
            assert held.submitted.wait(timeout=30)
            # One sampler tick while the cell runs; the service is
            # never stopped, as if the server were killed here.
            service._sample_once()
            doc = json.loads(path.read_text())
            assert doc["schema"] == 1
            assert doc["latest"]["leased"] == 1
            text = _postmortem(path, capsys)
            line = next(x for x in text.splitlines()
                        if x.startswith(f"  {job['id']}"))
            assert line.endswith("<- interrupted")
            held.release()
            _wait_until(lambda: service.queue.status(job["id"]) == "done")
        finally:
            held.release()
            harness.shutdown()
        assert not harness._thread.is_alive()
        doc = load_telemetry(path)
        # stop() took the second sample and wrote it.
        assert doc["recorded"] == 2
        assert doc["latest"]["jobs_done"] == 1
        assert doc["latest"]["leased"] == 0
        text = _postmortem(path, capsys)
        assert f"  {job['id']:<12s} done" in text
        assert "interrupted" not in text

    def test_file_events_follow_the_log_order(self, tmp_path):
        # EventLog calls subscribers after it releases its lock, so a
        # stalled subscriber lets a later emit's subscribers run first.
        # The file's tail is read from the log, in seq order.
        service = _flight_service(tmp_path)
        stalled, resume = threading.Event(), threading.Event()
        calls: list[int] = []
        wake = service._wake_streams

        def stall_the_first_emit():
            calls.append(len(calls))
            if len(calls) == 1:
                stalled.set()
                resume.wait(timeout=30)
            wake()

        service._wake_streams = stall_the_first_emit
        first = threading.Thread(
            target=service.events.emit, args=("cell.finished",),
            kwargs={"fingerprint": "f1"},
        )
        first.start()
        try:
            assert stalled.wait(timeout=30)
            service.events.emit("cell.finished", fingerprint="f2")
        finally:
            resume.set()
            first.join(timeout=30)
        assert not first.is_alive()
        service._sample_once()
        events = json.loads((tmp_path / "flight.json").read_text())["events"]
        assert [r["seq"] for r in events] == [1, 2]
        assert [r["fingerprint"] for r in events] == ["f1", "f2"]
