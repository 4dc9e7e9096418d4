"""The named-event contract: registry validation, routing, metrics."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.events import EVENT_NAMES, EVENT_SPECS, EventLog


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


class TestRouting:
    def test_job_field_routes_to_job_view(self):
        log = EventLog()
        log.emit("job.enqueued", job="job-1", cells=1)
        log.emit("job.enqueued", job="job-2", cells=1)
        assert [r["job"] for r in log.for_job("job-1")] == ["job-1"]

    def test_attached_fingerprints_route_cell_events(self):
        log = EventLog()
        log.attach("f00d", "job-1")
        log.emit("cell.leased", fingerprint="f00d", worker="w0")
        log.emit("cell.leased", fingerprint="beef", worker="w0")
        events = log.for_job("job-1")
        assert len(events) == 1
        assert events[0]["fingerprint"] == "f00d"

    def test_shared_cell_routes_to_every_attached_job(self):
        log = EventLog()
        log.attach("f00d", "job-1")
        log.attach("f00d", "job-2")
        log.emit("cell.cache_hit", fingerprint="f00d")
        assert log.for_job("job-1") == log.for_job("job-2")

    def test_detach_stops_routing(self):
        log = EventLog()
        log.attach("f00d", "job-1")
        log.detach_cell("f00d")
        log.emit("cell.finished", fingerprint="f00d")
        assert log.for_job("job-1") == []

    def test_job_view_ends_at_job_completed(self):
        # A cell a worker still holds when one of its jobs is
        # cancelled runs on; its later events reach only the live job.
        log = EventLog()
        log.attach("f00d", "job-1")
        log.attach("f00d", "job-2")
        log.emit("cell.leased", fingerprint="f00d", worker="w0")
        log.emit("job.completed", job="job-1", reason="cancelled")
        log.emit("cell.started", fingerprint="f00d", worker="w0")
        assert [r["event"] for r in log.for_job("job-1")] == [
            "cell.leased", "job.completed",
        ]
        assert [r["event"] for r in log.for_job("job-2")] == [
            "cell.leased", "cell.started",
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
    def test_global_log_is_ring_capped(self):
        log = EventLog(max_records=3)
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert [r["fingerprint"] for r in log.records] == ["f2", "f3", "f4"]
        assert [r["seq"] for r in log.records] == [3, 4, 5]

    def test_terminal_job_views_prune_beyond_retention(self):
        log = EventLog(retain_terminal=2)
        for i in range(4):
            job = f"job-{i}"
            log.emit("job.enqueued", job=job, cells=1)
            log.emit("job.completed", job=job, reason="done")
        # The two most recent terminal jobs still replay...
        assert len(log.for_job("job-2")) == 2
        assert len(log.for_job("job-3")) == 2
        # ...older ones were pruned.
        assert log.for_job("job-0") == []
        assert log.for_job("job-1") == []

    def test_unbounded_when_caps_are_none(self):
        log = EventLog(max_records=None, retain_terminal=None)
        for i in range(4):
            job = f"job-{i}"
            log.emit("job.enqueued", job=job, cells=1)
            log.emit("job.completed", job=job, reason="done")
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

    def test_ring_overwrite_bumps_dropped_counter(self):
        registry = MetricsRegistry()
        log = EventLog(metrics=registry, max_records=3)
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert log.dropped == 2
        assert "repro_service_events_dropped_total 2" in (
            registry.to_prometheus()
        )

    def test_unbounded_log_never_drops(self):
        log = EventLog(max_records=None)
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert log.dropped == 0

    def test_tail_returns_newest_records(self):
        log = EventLog()
        for i in range(5):
            log.emit("cell.finished", fingerprint=f"f{i}")
        assert [r["fingerprint"] for r in log.tail(2)] == ["f3", "f4"]

    def test_occupancy_reports_ring_state(self):
        log = EventLog(max_records=3)
        for i in range(4):
            log.emit("cell.finished", fingerprint=f"f{i}")
        occ = log.occupancy()
        assert occ["records"] == 3
        assert occ["capacity"] == 3
        assert occ["dropped"] == 1
