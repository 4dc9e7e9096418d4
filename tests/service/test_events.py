"""The named-event contract: registry validation, routing, metrics.

Routing and view retention are the queue's: those tests drive a
:class:`~repro.service.queue.JobQueue` and read its log's views.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import events as events_module
from repro.service import queue as queue_module
from repro.service.events import EVENT_NAMES, EVENT_SPECS, EventLog
from repro.service.queue import JobQueue


class TestRegistry:
    def test_issue_contract_names_are_declared(self):
        # The ISSUE names these six explicitly; the registry must
        # carry them (plus the rest of the lifecycle).
        for name in ("job.enqueued", "cell.leased", "cell.started",
                     "cell.cache_hit", "cell.retried", "job.completed"):
            assert name in EVENT_NAMES

    def test_specs_declare_required_fields(self):
        assert "reason" in EVENT_SPECS["job.completed"].fields
        assert "reason" in EVENT_SPECS["cell.retried"].fields
        assert "fingerprint" in EVENT_SPECS["cell.cache_hit"].fields


class TestEmit:
    def test_undeclared_name_is_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="undeclared"):
            log.emit("cell.vibes", fingerprint="f")

    def test_missing_required_field_is_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="missing required"):
            log.emit("job.completed", job="job-1")  # no reason

    def test_records_are_sequenced(self):
        log = EventLog()
        log.emit("job.enqueued", job="job-1", cells=2)
        log.emit("job.completed", job="job-1", reason="done")
        assert [r["seq"] for r in log.records] == [1, 2]

    def test_metrics_counter_tracks_event_names(self):
        registry = MetricsRegistry()
        log = EventLog(metrics=registry)
        log.emit("job.enqueued", job="job-1", cells=1)
        log.emit("job.enqueued", job="job-2", cells=1)
        text = registry.to_prometheus()
        assert 'repro_service_events_total{event="job.enqueued"} 2' in text


def _one_cell(seed: int) -> dict:
    return {
        "benchmarks": ["radiosity"], "techniques": ["base"],
        "seeds": [seed], "scale": 0.05,
    }


def _names(log: EventLog, job_id: str) -> list[str]:
    return [r["event"] for r in log.for_job(job_id)]


class TestRouting:
    """The queue names the views each event joins, from its records:
    a job's view gets its own job events and the events of the cells
    it waits on."""

    def test_job_field_routes_to_job_view(self, tmp_path):
        log = EventLog()
        queue = JobQueue(tmp_path, events=log)
        first = queue.submit(_one_cell(1))
        queue.submit(_one_cell(2))
        assert {r["job"] for r in log.for_job(first["id"])} == {first["id"]}

    def test_attached_fingerprints_route_cell_events(self, tmp_path):
        # A job is attached to the cells it submitted; another job's
        # cell's events stay out of its view.
        log = EventLog()
        queue = JobQueue(tmp_path, events=log)
        mine = queue.submit(_one_cell(1))
        queue.submit(_one_cell(2))
        for _ in range(2):
            queue.complete(queue.lease("w0")["fingerprint"])
        cell_events = [
            r for r in log.for_job(mine["id"]) if r["event"].startswith("cell.")
        ]
        assert [r["event"] for r in cell_events] == [
            "cell.enqueued", "cell.leased", "cell.finished",
        ]
        assert {r["fingerprint"] for r in cell_events} == set(mine["cells"])

    def test_shared_cell_routes_to_every_attached_job(self, tmp_path):
        log = EventLog()
        queue = JobQueue(tmp_path, events=log)
        first = queue.submit(_one_cell(1))
        second = queue.submit(_one_cell(1))  # joins the queued cell
        queue.complete(queue.lease("w0")["fingerprint"], cached=True)
        shared = [
            "cell.leased", "cell.cache_hit", "cell.finished", "job.completed",
        ]
        assert _names(log, first["id"]) == [
            "cell.enqueued", "job.enqueued", "cell.deduped", *shared,
        ]
        assert _names(log, second["id"]) == [
            "cell.deduped", "job.enqueued", *shared,
        ]

    def test_detach_stops_routing(self, tmp_path):
        # A finished cell leaves the live set: a later run of the same
        # cell for a new job reaches none of the ended jobs.
        log = EventLog()
        queue = JobQueue(tmp_path, events=log)
        old = queue.submit(_one_cell(1))
        queue.complete(queue.lease("w0")["fingerprint"])
        before = log.for_job(old["id"])
        new = queue.submit(_one_cell(1))
        queue.complete(queue.lease("w0")["fingerprint"], cached=True)
        assert log.for_job(old["id"]) == before
        assert _names(log, new["id"]) == [
            "cell.enqueued", "job.enqueued", "cell.leased", "cell.cache_hit",
            "cell.finished", "job.completed",
        ]

    def test_job_view_ends_at_job_completed(self, tmp_path):
        # A cell a worker still holds when one of its jobs is
        # cancelled runs on; its later events reach only the live job.
        log = EventLog()
        queue = JobQueue(tmp_path, events=log)
        cancelled = queue.submit(_one_cell(1))
        live = queue.submit(_one_cell(1))
        fingerprint = queue.lease("w0")["fingerprint"]
        queue.cancel(cancelled["id"])
        queue.start(fingerprint, "w0")
        queue.complete(fingerprint)
        assert _names(log, cancelled["id"])[-2:] == [
            "cell.leased", "job.completed",
        ]
        assert _names(log, live["id"])[-4:] == [
            "cell.leased", "cell.started", "cell.finished", "job.completed",
        ]

    def test_subscribers_see_every_record(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("cell.finished", fingerprint="f")
        log.unsubscribe(seen.append)
        log.emit("cell.finished", fingerprint="g")
        assert [r["fingerprint"] for r in seen] == ["f"]

    def test_ndjson_round_trips(self):
        log = EventLog()
        log.emit("job.enqueued", job="job-1", cells=3)
        lines = log.to_ndjson().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["job.enqueued"]


class TestBoundedMemory:
    def test_global_log_is_ring_capped(self, monkeypatch):
        monkeypatch.setattr(events_module, "MAX_RECORDS", 3)
        log = EventLog()
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert [r["fingerprint"] for r in log.records] == ["f2", "f3", "f4"]
        assert [r["seq"] for r in log.records] == [3, 4, 5]

    def test_terminal_job_views_prune_beyond_retention(
        self, tmp_path, monkeypatch,
    ):
        monkeypatch.setattr(queue_module, "RETAIN_TERMINAL", 2)
        log = EventLog()
        queue = JobQueue(tmp_path, events=log)
        jobs = []
        for seed in (1, 2, 3, 4):
            jobs.append(queue.submit(_one_cell(seed))["id"])
            queue.complete(queue.lease("w0")["fingerprint"])
        # The two most recent terminal jobs still replay...
        assert len(log.for_job(jobs[2])) == 5
        assert len(log.for_job(jobs[3])) == 5
        # ...older ones were pruned with their records.
        assert log.for_job(jobs[0]) == []
        assert log.for_job(jobs[1]) == []
        assert log.occupancy()["views"] == 2

    def test_unbounded_when_caps_are_none(self):
        # Under its record cap the log keeps every record, and it
        # prunes no view on its own: retention is the queue's.
        log = EventLog()
        for i in range(4):
            job = f"job-{i}"
            log.emit("job.enqueued", [job], job=job, cells=1)
            log.emit("job.completed", [job], job=job, reason="done")
        assert len(log.records) == 8
        assert len(log.for_job("job-0")) == 2


class TestDropAccounting:
    def test_undeclared_payload_field_is_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="undeclared fields"):
            log.emit("cell.finished", fingerprint="f", bogus=1)

    def test_trace_is_declared_optional_everywhere(self):
        log = EventLog()
        for name, spec in EVENT_SPECS.items():
            assert "trace" in spec.optional, name
        record = log.emit("cell.finished", fingerprint="f", trace="t-1")
        assert record["trace"] == "t-1"

    def test_ring_overwrite_bumps_dropped_counter(self, monkeypatch):
        monkeypatch.setattr(events_module, "MAX_RECORDS", 3)
        registry = MetricsRegistry()
        log = EventLog(metrics=registry)
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert log.dropped == 2
        assert "repro_service_events_dropped_total 2" in (
            registry.to_prometheus()
        )

    def test_unbounded_log_never_drops(self):
        # A log under its record cap drops nothing.
        log = EventLog()
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert log.dropped == 0

    def test_tail_returns_newest_records(self):
        log = EventLog()
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert [r["fingerprint"] for r in log.tail(2)] == ["f3", "f4"]

    def test_occupancy_reports_ring_state(self, monkeypatch):
        monkeypatch.setattr(events_module, "MAX_RECORDS", 3)
        log = EventLog()
        for i in range(4):
            log.emit("cell.finished", fingerprint=f"f{i}")
        occ = log.occupancy()
        assert occ["records"] == 3
        assert occ["capacity"] == 3
        assert occ["dropped"] == 1
