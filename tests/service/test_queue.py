"""JobQueue state machine: dedupe, leases, retries, cancel, durability.

Everything here runs on a fake monotonic clock — no sleeping, no
simulation; the queue is a pure state machine over its events.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.events import EventLog
from repro.service.queue import JobQueue, SpecError, validate_spec


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move time forward."""
        self.now += seconds


SPEC = {
    "benchmarks": ["radiosity"],
    "techniques": ["base", "emesti"],
    "seeds": [1],
    "scale": 0.05,
}


def make_queue(tmp_path, **kwargs) -> tuple[JobQueue, EventLog, FakeClock]:
    """A queue on a fake clock with a fresh event log."""
    clock = FakeClock()
    events = EventLog()
    queue = JobQueue(tmp_path / "queue", events=events, clock=clock, **kwargs)
    return queue, events, clock


def names(events: EventLog) -> list[str]:
    """The emitted event names, in order."""
    return [r["event"] for r in events.records]


class TestSpecValidation:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SpecError, match="unknown benchmark"):
            validate_spec({**SPEC, "benchmarks": ["quake"]})

    def test_unknown_technique_rejected(self):
        with pytest.raises(SpecError, match="unknown technique"):
            validate_spec({**SPEC, "techniques": ["magic"]})

    def test_empty_axes_rejected(self):
        with pytest.raises(SpecError, match="non-empty"):
            validate_spec({**SPEC, "seeds": []})

    def test_bad_scale_rejected(self):
        with pytest.raises(SpecError, match="scale"):
            validate_spec({**SPEC, "scale": -1})

    def test_non_object_rejected(self):
        with pytest.raises(SpecError, match="object"):
            validate_spec(["radiosity"])

    def test_defaults_applied(self):
        spec = validate_spec({
            "benchmarks": ["tpc-b"], "techniques": ["base"], "seeds": [1],
        })
        assert spec["scale"] == 0.1
        assert spec["priority"] == 0

    def test_repeated_axis_values_are_deduped(self):
        spec = validate_spec({
            **SPEC,
            "benchmarks": ["radiosity", "radiosity"],
            "seeds": [1, 2, 1],
        })
        assert spec["benchmarks"] == ["radiosity"]
        assert spec["seeds"] == [1, 2]

    def test_boolean_seed_rejected(self):
        with pytest.raises(SpecError, match="seeds"):
            validate_spec({**SPEC, "seeds": [True]})


class TestSubmitAndDedupe:
    def test_submit_explodes_matrix_into_cells(self, tmp_path):
        queue, events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        assert len(job["cells"]) == 2
        assert names(events) == [
            "cell.enqueued", "cell.enqueued", "job.enqueued",
        ]

    def test_duplicate_submission_shares_inflight_cells(self, tmp_path):
        queue, events, _clock = make_queue(tmp_path)
        first = queue.submit(SPEC)
        second = queue.submit(SPEC)
        assert first["cells"] == second["cells"]
        # No new cells: both of the second job's cells deduped.
        assert names(events).count("cell.enqueued") == 2
        assert names(events).count("cell.deduped") == 2
        # One completion credits both jobs.
        for fingerprint in first["cells"]:
            queue.lease("w0")
            queue.complete(fingerprint)
        assert queue.jobs[first["id"]]["status"] == "done"
        assert queue.jobs[second["id"]]["status"] == "done"

    def test_finished_cells_leave_the_live_set(self, tmp_path):
        # Re-submitting after completion must enqueue fresh cells
        # (served from the result store, not the queue).
        queue, events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        for fingerprint in job["cells"]:
            queue.lease("w0")
            queue.complete(fingerprint)
        assert queue.pending() == []
        queue.submit(SPEC)
        assert names(events).count("cell.enqueued") == 4
        assert names(events).count("cell.deduped") == 0

    def test_duplicate_seed_submission_yields_unique_cells(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit({**SPEC, "seeds": [1, 1]})
        assert len(job["cells"]) == len(set(job["cells"])) == 2
        for fingerprint in job["cells"]:
            assert queue.cells[fingerprint]["jobs"] == [job["id"]]

    def test_resubmitted_done_cell_still_credits_the_waiting_job(
        self, tmp_path,
    ):
        # Job A (2 cells) has one cell done; job B re-submits that
        # cell while A still waits on its sibling.  The fresh queued
        # cell must carry A's reference, or A's completion check
        # never fires again and A stays queued forever (its event
        # stream would never terminate).
        queue, _events, _clock = make_queue(tmp_path)
        job_a = queue.submit(SPEC)  # base + emesti cells
        shared = job_a["cells"][0]
        queue.lease("w0")
        queue.complete(shared)
        job_b = queue.submit({**SPEC, "techniques": ["base"]})
        assert job_b["cells"] == [shared]
        assert set(queue.cells[shared]["jobs"]) == {
            job_a["id"], job_b["id"],
        }
        queue.lease("w1")
        queue.complete(shared)
        assert queue.jobs[job_b["id"]]["status"] == "done"
        queue.lease("w2")
        queue.complete(job_a["cells"][1])
        assert queue.jobs[job_a["id"]]["status"] == "done"


class TestLeasing:
    def test_lease_order_is_fifo_within_priority(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        first = queue.submit({**SPEC, "techniques": ["base"]})
        second = queue.submit({**SPEC, "techniques": ["emesti"]})
        assert queue.lease("w0")["fingerprint"] == first["cells"][0]
        assert queue.lease("w1")["fingerprint"] == second["cells"][0]
        assert queue.lease("w2") is None

    def test_higher_priority_leases_first(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        queue.submit({**SPEC, "techniques": ["base"]})
        urgent = queue.submit({**SPEC, "techniques": ["emesti"],
                               "priority": 10})
        assert queue.lease("w0")["fingerprint"] == urgent["cells"][0]

    def test_heartbeat_extends_the_deadline(self, tmp_path):
        queue, _events, clock = make_queue(tmp_path, lease_ttl=10.0)
        queue.submit({**SPEC, "techniques": ["base"]})
        cell = queue.lease("w0")
        clock.advance(8.0)
        assert queue.heartbeat(cell["fingerprint"], "w0")
        clock.advance(8.0)  # past the original deadline, not the renewed
        assert queue.expire_leases() == []

    def test_heartbeat_from_the_wrong_worker_is_refused(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        queue.submit({**SPEC, "techniques": ["base"]})
        cell = queue.lease("w0")
        assert not queue.heartbeat(cell["fingerprint"], "w1")

    def test_lease_stats_read_the_lease_latency_histogram(self, tmp_path):
        registry = MetricsRegistry()
        queue, _events, clock = make_queue(
            tmp_path, lease_ttl=10.0, metrics=registry,
        )
        assert queue.lease_stats() == {
            "count": 0, "wait_total": 0.0, "wait_max": 0.0,
        }
        job = queue.submit(SPEC)
        clock.advance(2.0)
        assert queue.lease("w0")["fingerprint"] == job["cells"][0]  # waits 2
        clock.advance(11.0)
        queue.expire_leases()  # the cell is retried: queued again at 13
        clock.advance(1.0)
        assert queue.lease("w1")["fingerprint"] == job["cells"][0]  # waits 1
        clock.advance(3.0)
        assert queue.lease("w2")["fingerprint"] == job["cells"][1]  # waits 17
        hist = registry.histogram(
            "repro_service_lease_latency_seconds"
        ).labels().hist
        assert queue.lease_stats() == {
            "count": hist.count, "wait_total": hist.total,
            "wait_max": hist.max,
        } == {"count": 3, "wait_total": 20.0, "wait_max": 17.0}


class TestRetryBudget:
    """Worker-death handling: re-enqueue exactly once, then fail."""

    def test_expired_lease_reenqueues_exactly_once(self, tmp_path):
        queue, events, clock = make_queue(tmp_path, lease_ttl=10.0)
        job = queue.submit({**SPEC, "techniques": ["base"]})
        fingerprint = job["cells"][0]
        # First loss: retried.
        queue.lease("w0")
        clock.advance(11.0)
        assert queue.expire_leases() == [fingerprint]
        assert names(events).count("cell.retried") == 1
        assert queue.cells[fingerprint]["state"] == "queued"
        # Second loss: the budget is spent — failed, job completes.
        queue.lease("w0")
        clock.advance(11.0)
        queue.expire_leases()
        assert names(events).count("cell.retried") == 1  # still exactly one
        assert names(events).count("cell.failed") == 1
        assert queue.jobs[job["id"]]["status"] == "failed"
        completed = events.named("job.completed")
        assert completed[-1]["reason"] == "failed"

    def test_retried_event_carries_the_reason(self, tmp_path):
        queue, events, clock = make_queue(tmp_path, lease_ttl=10.0)
        queue.submit({**SPEC, "techniques": ["base"]})
        cell = queue.lease("w0")
        clock.advance(11.0)
        queue.expire_leases()
        (retried,) = events.named("cell.retried")
        assert retried["reason"] == "lease_expired"
        assert retried["fingerprint"] == cell["fingerprint"]

    def test_reported_worker_death_uses_the_same_budget(self, tmp_path):
        queue, events, _clock = make_queue(tmp_path)
        job = queue.submit({**SPEC, "techniques": ["base"]})
        fingerprint = job["cells"][0]
        queue.lease("w0")
        queue.fail(fingerprint, "worker_death")
        (retried,) = events.named("cell.retried")
        assert retried["reason"] == "worker_death"
        queue.lease("w0")
        queue.fail(fingerprint, "worker_death")
        assert names(events).count("cell.failed") == 1

    def test_completion_after_reenqueue_still_counts(self, tmp_path):
        queue, _events, clock = make_queue(tmp_path, lease_ttl=10.0)
        job = queue.submit({**SPEC, "techniques": ["base"]})
        queue.lease("w0")
        clock.advance(11.0)
        queue.expire_leases()
        queue.lease("w1")
        queue.complete(job["cells"][0])
        assert queue.jobs[job["id"]]["status"] == "done"


class TestCancellation:
    def test_cancel_drains_exclusive_queued_cells(self, tmp_path):
        queue, events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        cancelled = queue.cancel(job["id"])
        assert cancelled["status"] == "cancelled"
        assert queue.pending() == []  # both cells dropped
        (completed,) = events.named("job.completed")
        assert completed["reason"] == "cancelled"

    def test_cancel_spares_cells_shared_with_live_jobs(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        queue.submit(SPEC)
        second = queue.submit(SPEC)
        queue.cancel(second["id"])
        # The first job still needs both cells.
        assert len(queue.pending()) == 2

    def test_cancel_leaves_leased_cells_to_finish(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit({**SPEC, "techniques": ["base"]})
        cell = queue.lease("w0")
        queue.cancel(job["id"])
        assert queue.cells[cell["fingerprint"]]["state"] == "leased"
        # Finishing it stores the result; the job stays cancelled.
        queue.complete(cell["fingerprint"])
        assert queue.jobs[job["id"]]["status"] == "cancelled"

    def test_cancelled_job_reports_every_unfinished_cell_dropped(
        self, tmp_path,
    ):
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        held = queue.lease("w0")
        live = queue.submit(SPEC)
        queue.cancel(job["id"])
        # One cell runs on the worker that held it, the other stays
        # queued for the live job: the cancelled job waits on neither.
        assert set(queue.job_status(job["id"])["cell_states"].values()) == {
            "dropped",
        }
        assert sorted(queue.job_status(live["id"])["cell_states"].values()) == [
            "leased", "queued",
        ]
        queue.complete(held["fingerprint"])
        assert sorted(queue.job_status(job["id"])["cell_states"].values()) == [
            "done", "dropped",
        ]

    def test_cancel_unknown_job_raises(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        with pytest.raises(KeyError):
            queue.cancel("job-999999")

    def test_cancel_is_idempotent(self, tmp_path):
        queue, events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        queue.cancel(job["id"])
        queue.cancel(job["id"])
        assert names(events).count("job.completed") == 1


class TestDurability:
    def test_state_survives_reload(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        reloaded = JobQueue(tmp_path / "queue", events=EventLog())
        assert reloaded.jobs[job["id"]]["spec"] == job["spec"]
        assert len(reloaded.pending()) == 2

    def test_leased_cells_recover_to_queued_on_reload(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        queue.submit(SPEC)
        queue.lease("w0")
        reloaded = JobQueue(tmp_path / "queue", events=EventLog())
        states = {c["state"] for c in reloaded.pending()}
        assert states == {"queued"}

    def test_job_ids_continue_from_the_persisted_counter(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        first = queue.submit(SPEC)
        reloaded = JobQueue(tmp_path / "queue", events=EventLog())
        second = reloaded.submit(SPEC)
        assert second["id"] != first["id"]

    def test_state_file_is_valid_json(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        queue.submit(SPEC)
        doc = json.loads((tmp_path / "queue" / "state.json").read_text())
        assert set(doc) == {"seq", "jobs", "cells"}


class TestStatus:
    def test_job_status_reports_cell_states(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        queue.lease("w0")
        status = queue.job_status(job["id"])
        assert sorted(status["cell_states"].values()) == ["leased", "queued"]

    def test_unknown_job_raises(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        with pytest.raises(KeyError):
            queue.job_status("job-404")
