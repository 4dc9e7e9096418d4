"""JobQueue state machine: dedupe, leases, retries, cancel, durability.

Everything here runs on a fake monotonic clock — no sleeping, no
simulation; the queue is a pure state machine over its events.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import queue as queue_module
from repro.service.events import EventLog
from repro.service.queue import JobNotFound, JobQueue, SpecError, validate_spec


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

    @pytest.mark.parametrize(
        "field, value",
        [("scale", True), ("priority", True),
         ("scale", float("nan")), ("scale", float("inf"))],
        ids=["bool-scale", "bool-priority", "nan-scale", "inf-scale"],
    )
    def test_malformed_number_rejected(self, field, value):
        # json.loads yields all four; a true scale would queue a
        # scale-1.0 cell, a non-finite one fails only in the pool.
        with pytest.raises(SpecError, match=field):
            validate_spec({**SPEC, field: value})

    @pytest.mark.parametrize("kind", ["frobnicate", "fuzz"])
    def test_unknown_kind_rejected(self, kind):
        # Fuzzing campaigns run through `repro-sim fuzz`, not the queue.
        with pytest.raises(SpecError, match="unknown job kind"):
            validate_spec({"kind": kind, "seeds": [1]})

    def test_sim_specs_unchanged_by_kind_dispatch(self):
        spec = validate_spec({
            "benchmarks": ["radiosity"], "techniques": ["base"],
            "seeds": [1],
        })
        assert "kind" not in spec  # back-compat with persisted state


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

    def test_lease_stats_read_the_lease_latency_histogram(self, tmp_path):
        registry = MetricsRegistry()
        queue, _events, clock = make_queue(tmp_path, metrics=registry)
        assert queue.lease_stats() == {
            "count": 0, "wait_total": 0.0, "wait_max": 0.0,
        }
        job = queue.submit(SPEC)
        clock.advance(2.0)
        assert queue.lease("w0")["fingerprint"] == job["cells"][0]  # waits 2
        clock.advance(11.0)
        # The cell is lost and retried: queued again at 13.
        queue.fail(job["cells"][0], "worker_death")
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
        queue, events, _clock = make_queue(tmp_path)
        job = queue.submit({**SPEC, "techniques": ["base"]})
        fingerprint = job["cells"][0]
        # First loss: retried.
        queue.lease("w0")
        queue.fail(fingerprint, "worker_death")
        assert names(events).count("cell.retried") == 1
        assert queue.cells[fingerprint]["state"] == "queued"
        # Second loss: the budget is spent — failed, job completes.
        queue.lease("w0")
        queue.fail(fingerprint, "worker_death")
        assert names(events).count("cell.retried") == 1  # still exactly one
        assert names(events).count("cell.failed") == 1
        assert queue.jobs[job["id"]]["status"] == "failed"
        completed = events.named("job.completed")
        assert completed[-1]["reason"] == "failed"

    def test_retried_event_carries_the_reason(self, tmp_path):
        queue, events, _clock = make_queue(tmp_path)
        queue.submit({**SPEC, "techniques": ["base"]})
        cell = queue.lease("w0")
        queue.fail(cell["fingerprint"], "worker_error")
        (retried,) = events.named("cell.retried")
        assert retried["reason"] == "worker_error"
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
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit({**SPEC, "techniques": ["base"]})
        queue.lease("w0")
        queue.fail(job["cells"][0], "worker_death")
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


def journal_lines(tmp_path) -> list[dict]:
    """The queue journal's lines, parsed."""
    path = tmp_path / "queue" / "journal.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


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
        leased = queue.lease("w0")["fingerprint"]
        # A lease appends nothing; a submit that joins the leased cell
        # journals its whole record, leased state and all.
        queue.submit(SPEC)
        assert journal_lines(tmp_path)[-1]["cells"][leased]["state"] == "leased"
        reloaded = JobQueue(tmp_path / "queue", events=EventLog())
        assert reloaded.cells[leased]["state"] == "queued"
        states = {c["state"] for c in reloaded.pending()}
        assert states == {"queued"}

    def test_a_snapshot_with_lease_deadlines_loads_and_requeues(self, tmp_path):
        # A queue that kept lease deadlines wrote a ``lease`` field on
        # every cell: its leased cells come back queued, without it.
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        leased = queue.lease("w0")["fingerprint"]
        cells = copy.deepcopy(queue.cells)
        for fingerprint, cell in cells.items():
            cell["lease"] = (
                {"worker": "shard0/w0", "deadline": 30.0}
                if fingerprint == leased else None
            )
        root = tmp_path / "queue"
        (root / "journal.jsonl").unlink()
        (root / "state.json").write_text(json.dumps({
            "seq": queue._seq, "jobs": queue.jobs, "cells": cells,
            "terminal": [],
        }))
        reloaded = reload(tmp_path)
        assert reload_view(reloaded) == reload_view(queue)
        assert {c["state"] for c in reloaded.pending()} == {"queued"}
        assert not any("lease" in c for c in reloaded.cells.values())
        for _ in job["cells"]:
            reloaded.complete(reloaded.lease("w0")["fingerprint"])
        assert reloaded.status(job["id"]) == "done"

    def test_a_lease_does_not_write_state(self, tmp_path, monkeypatch):
        snapshots = []
        monkeypatch.setattr(
            queue_module, "atomic_write",
            lambda path, text: snapshots.append(path),
        )
        queue, _events, _clock = make_queue(tmp_path)
        queue.submit({**SPEC, "techniques": ["base"]})
        assert len(journal_lines(tmp_path)) == 1
        cell = queue.lease("w0")
        # A restart would undo a lease: it appends nothing.
        assert len(journal_lines(tmp_path)) == 1
        queue.complete(cell["fingerprint"])
        assert len(journal_lines(tmp_path)) == 2
        assert snapshots == []

    def test_job_ids_continue_from_the_persisted_counter(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        first = queue.submit(SPEC)
        reloaded = JobQueue(tmp_path / "queue", events=EventLog())
        second = reloaded.submit(SPEC)
        assert second["id"] != first["id"]

    def test_state_file_is_valid_json(self, tmp_path, monkeypatch):
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        (line,) = journal_lines(tmp_path)
        assert set(line) == {"seq", "jobs", "cells"}
        assert line["seq"] == 1
        assert line["jobs"] == {job["id"]: queue.jobs[job["id"]]}
        assert line["cells"] == {f: queue.cells[f] for f in job["cells"]}
        # Compaction folds the journal into the state.json snapshot.
        monkeypatch.setattr(queue_module, "COMPACT_FLOOR", 0)
        queue.cancel(job["id"])
        doc = json.loads((tmp_path / "queue" / "state.json").read_text())
        assert set(doc) == {"seq", "jobs", "cells", "terminal"}
        assert doc["terminal"] == [job["id"]]
        assert (tmp_path / "queue" / "journal.jsonl").read_text() == ""


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


def reload_view(queue: JobQueue) -> tuple:
    """What a reload of ``queue`` must rebuild: its jobs, counter,
    terminal order and cells, with leased cells read as queued and no
    span ids (they name spans of the previous process's trace store)."""
    jobs = copy.deepcopy(queue.jobs)
    for job in jobs.values():
        job["span"] = None
    cells = copy.deepcopy(queue.cells)
    for cell in cells.values():
        cell.update(job_span=None, lease_span=None)
        if cell["state"] == "leased":
            cell["state"] = "queued"
    return jobs, queue._seq, list(queue._terminal), cells


def reload(tmp_path) -> JobQueue:
    """A fresh queue on the same root (a restart)."""
    return JobQueue(tmp_path / "queue", events=EventLog())


class TestJournal:
    @pytest.mark.parametrize("floor", [None, 2048], ids=["default", "compacting"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reload_equals_the_live_state_after_every_update(
        self, tmp_path, monkeypatch, seed, floor,
    ):
        # Random submit/lease/complete/fail/cancel/fail-all sequences
        # with a 3-job retention; a small compaction floor also
        # replays journals over fresh snapshots.
        if floor is not None:
            monkeypatch.setattr(queue_module, "COMPACT_FLOOR", floor)
        monkeypatch.setattr(queue_module, "RETAIN_TERMINAL", 3)
        rng = random.Random(seed)
        queue = JobQueue(tmp_path / "queue", events=EventLog(), clock=FakeClock())
        leased: list[str] = []
        for step in range(150):
            op = rng.choice(
                ["submit", "submit", "lease", "lease", "complete",
                 "fail", "cancel", "fail-all"],
            )
            if op == "submit":
                queue.submit({
                    **SPEC,
                    "techniques": rng.sample(["base", "emesti", "mesti"], 2),
                    "seeds": [rng.randint(1, 3)],
                    "priority": rng.randint(0, 1),
                })
            elif op == "lease":
                cell = queue.lease("w0")
                if cell is not None:
                    leased.append(cell["fingerprint"])
            elif op == "complete" and leased:
                queue.complete(leased.pop(rng.randrange(len(leased))))
            elif op == "fail" and leased:
                queue.fail(leased.pop(rng.randrange(len(leased))), "worker_error")
            elif op == "cancel" and queue.jobs:
                queue.cancel(rng.choice(sorted(queue.jobs)))
            elif op == "fail-all":
                for fingerprint in leased:
                    queue.fail(fingerprint, "worker_death")
                leased.clear()
            assert reload_view(reload(tmp_path)) == reload_view(queue), (
                f"step {step}: {op}"
            )

    def test_torn_tail_is_cut_back_to_whole_lines(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        first = queue.submit(SPEC)
        queue.submit({**SPEC, "seeds": [2]})
        path = tmp_path / "queue" / "journal.jsonl"
        whole, torn = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(whole + torn[: len(torn) // 2])
        reloaded = reload(tmp_path)
        assert set(reloaded.jobs) == {first["id"]}
        assert path.read_bytes() == whole
        # A later append lands after the whole prefix and survives.
        later = reloaded.submit({**SPEC, "seeds": [3]})
        again = reload(tmp_path)
        assert set(again.jobs) == {first["id"], later["id"]}
        assert reload_view(again) == reload_view(reloaded)

    def test_crash_between_snapshot_and_journal_reset(
        self, tmp_path, monkeypatch,
    ):
        queue, _events, _clock = make_queue(tmp_path)
        job = queue.submit(SPEC)
        queue.submit({**SPEC, "seeds": [2]})
        cell = queue.lease("w0")

        class Crash(Exception):
            pass

        write = queue_module.atomic_write

        def write_then_crash(path, text):
            write(path, text)
            raise Crash

        monkeypatch.setattr(queue_module, "atomic_write", write_then_crash)
        monkeypatch.setattr(queue_module, "COMPACT_FLOOR", 0)
        with pytest.raises(Crash):
            queue.complete(cell["fingerprint"])
        # The new snapshot is down and the old journal is still there.
        assert (tmp_path / "queue" / "state.json").exists()
        assert len(journal_lines(tmp_path)) == 3
        assert reload_view(reload(tmp_path)) == reload_view(queue)
        assert queue.jobs[job["id"]]["status"] == "queued"

    def test_stale_snapshot_temp_files_are_deleted_on_load(self, tmp_path):
        queue, _events, _clock = make_queue(tmp_path)
        queue.submit(SPEC)
        stale = tmp_path / "queue" / "state.json.k3xq_9ab.tmp"
        stale.write_text('{"seq": 1, "jo')
        # The result store is shared: its temp files are not the queue's.
        results = tmp_path / "results"
        results.mkdir()
        store_tmp = results / "0123456789abcdef.json.k3xq_9ab.tmp"
        store_tmp.write_text("{")
        reloaded = reload(tmp_path)
        assert not stale.exists()
        assert store_tmp.exists()
        assert len(reloaded.pending()) == 2


class TestConstantCost:
    """The journal's costs are counted in bytes, not timed."""

    JOBS = 2000

    @pytest.fixture(scope="class")
    def history(self, tmp_path_factory):
        """Run JOBS one-cell jobs; record each submit's appended bytes
        (None where a compaction emptied the journal) and the bytes on
        disk after each job."""
        root = tmp_path_factory.mktemp("constant") / "queue"
        queue = JobQueue(root, events=EventLog(), clock=FakeClock())
        journal = root / "journal.jsonl"
        spec = {**SPEC, "techniques": ["base"]}
        appended: list[int | None] = []
        on_disk: list[int] = []

        def size(path) -> int:
            return path.stat().st_size if path.exists() else 0

        for _ in range(self.JOBS + 1):
            before = size(journal)
            job = queue.submit(spec)
            after = size(journal)
            appended.append(after - before if after > before else None)
            queue.lease("w0")
            queue.complete(job["cells"][0])
            on_disk.append(size(journal) + size(root / "state.json"))
        return appended, on_disk, queue

    def test_a_late_submit_appends_what_the_first_did(self, history):
        appended, _on_disk, _queue = history
        first = appended[0]
        late = next(n for n in reversed(appended) if n is not None)
        # Only the counters' digits grow (seq, order, span ids).
        assert abs(late - first) <= 16, (first, late)

    def test_disk_state_stays_bounded(self, history):
        _appended, on_disk, queue = history
        assert len(queue.jobs) == queue_module.RETAIN_TERMINAL
        # Compaction keeps the snapshot plus journal within a fixed
        # multiple of the retained state, at 200 jobs as at 2,000.
        assert max(on_disk[200:]) < 512 * 1024
        assert max(on_disk[1000:]) <= 1.25 * max(on_disk[200:1000])


class TestRetention:
    def run_job(self, queue: JobQueue, seed: int, techniques=("base",)) -> dict:
        """Submit a job, then lease and complete every cell of it (its
        priority puts its cells ahead of any already queued)."""
        job = queue.submit({
            **SPEC, "techniques": list(techniques), "seeds": [seed],
            "priority": 10,
        })
        for _ in job["cells"]:
            queue.complete(queue.lease("w0")["fingerprint"])
        return job

    def test_only_the_newest_terminal_jobs_are_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_module, "RETAIN_TERMINAL", 2)
        queue = JobQueue(tmp_path / "queue", events=EventLog())
        jobs = [self.run_job(queue, seed)["id"] for seed in (1, 2, 3)]
        assert set(queue.jobs) == set(jobs[1:])
        assert set(reload(tmp_path).jobs) == set(jobs[1:])
        assert queue.depth_counts()["jobs"] == {"done": 2, "expired": 1}

    def test_a_snapshot_from_before_retention_loads_and_expires(
        self, tmp_path, monkeypatch,
    ):
        # Such a state.json has no terminal list: its terminal jobs
        # join the retention order by id.
        root = tmp_path / "queue"
        queue = JobQueue(root, events=EventLog())
        jobs = [self.run_job(queue, seed)["id"] for seed in (1, 2, 3)]
        (root / "journal.jsonl").unlink()
        (root / "state.json").write_text(json.dumps(
            {"seq": queue._seq, "jobs": queue.jobs, "cells": queue.cells},
        ))
        monkeypatch.setattr(queue_module, "RETAIN_TERMINAL", 2)
        reloaded = JobQueue(root, events=EventLog())
        assert reloaded.jobs == reload_view(queue)[0]
        latest = self.run_job(reloaded, 4)["id"]
        assert sorted(reloaded.jobs) == [jobs[2], latest]

    def test_expired_and_unminted_ids_read_differently(self, tmp_path, monkeypatch):
        monkeypatch.setattr(queue_module, "RETAIN_TERMINAL", 1)
        queue = JobQueue(tmp_path / "queue", events=EventLog())
        old = self.run_job(queue, 1)["id"]
        self.run_job(queue, 2)
        with pytest.raises(JobNotFound, match=f"job {old} expired"):
            queue.job_status(old)
        assert queue.status(old) == "expired"
        with pytest.raises(JobNotFound, match="no job job-999999"):
            queue.job_status("job-999999")
        with pytest.raises(JobNotFound, match="no job"):
            queue.status("job-0000001")

    def test_done_cell_shared_with_an_expired_job_is_collected(
        self, tmp_path, monkeypatch,
    ):
        monkeypatch.setattr(queue_module, "RETAIN_TERMINAL", 1)
        queue = JobQueue(tmp_path / "queue", events=EventLog())
        first = queue.submit({**SPEC, "techniques": ["base"]})
        shared = first["cells"][0]
        # The second job joins the queued cell and waits on a sibling.
        second = queue.submit(SPEC)
        assert queue.cells[shared]["jobs"] == [first["id"], second["id"]]
        queue.complete(queue.lease("w0")["fingerprint"])
        assert queue.jobs[first["id"]]["status"] == "done"
        self.run_job(queue, 7)  # a later completion expires the first job
        assert first["id"] not in queue.jobs
        queue.complete(queue.lease("w0")["fingerprint"])
        assert queue.jobs[second["id"]]["status"] == "done"
        assert queue.cells == {}

    def test_cancel_drains_a_cell_only_an_expired_job_shared(
        self, tmp_path, monkeypatch,
    ):
        monkeypatch.setattr(queue_module, "RETAIN_TERMINAL", 1)
        queue = JobQueue(tmp_path / "queue", events=EventLog())
        first = queue.submit({**SPEC, "techniques": ["base"]})
        cell = queue.lease("w0")
        queue.cancel(first["id"])
        # The cell is lost and queued again, for nobody.
        queue.fail(cell["fingerprint"], "worker_death")
        late = queue.submit({**SPEC, "techniques": ["base"]})
        self.run_job(queue, 7, techniques=("emesti",))  # expires the first
        assert first["id"] not in queue.jobs
        queue.cancel(late["id"])
        assert queue.pending() == []
