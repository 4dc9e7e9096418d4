"""Worker shard failure paths: crash recovery, owned outcomes, store
serving.

The shard runs on a real asyncio loop (driven by ``asyncio.run``
inside each test) with a thread executor — no worker subprocesses, so
the failure injections are deterministic and fast.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.runner import MatrixRunner, summaries_equal
from repro.obs.tracer import SPAN_ID_BITS
from repro.service import workers as workers_module
from repro.service.events import EventLog
from repro.service.queue import JOB_TERMINAL, JobQueue
from repro.service.workers import ResultStore, WorkerShard

SPEC = {
    "benchmarks": ["radiosity"],
    "techniques": ["base"],
    "seeds": [1],
    "scale": 0.05,
}


class CrashingExecutor(ThreadPoolExecutor):
    """Dies (BrokenProcessPool) for the first N submissions."""

    def __init__(self, crashes: int = 1):
        super().__init__(max_workers=1)
        self.crashes = crashes
        self.submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        """Fail the first ``crashes`` submissions, then delegate."""
        self.submissions += 1
        if self.submissions <= self.crashes:
            future: Future = Future()
            future.set_exception(BrokenProcessPool("worker died"))
            return future
        return super().submit(fn, *args, **kwargs)


class BrokenWhileIdle(Executor):
    """A process pool whose worker died between tasks: it refuses
    every submission."""

    def submit(self, fn, /, *args, **kwargs):
        """Refuse, as a broken ``ProcessPoolExecutor`` does."""
        raise BrokenProcessPool("a child process terminated abruptly")


def build(tmp_path, executor, workers=1, **queue_kwargs):
    """Queue + store + shard wired to one event log."""
    events = EventLog()
    queue = JobQueue(tmp_path / "queue", events=events, **queue_kwargs)
    store = ResultStore(tmp_path / "results")
    shard = WorkerShard(queue, store, events, workers=workers, executor=executor)
    return events, queue, store, shard


async def run_jobs(queue, shard, specs, timeout: float = 60.0) -> list[dict]:
    """Start the shard once, submit each spec after the one before it
    is terminal, and return the job records."""
    loop = asyncio.get_running_loop()
    jobs = []
    await shard.start()
    try:
        for spec in specs:
            job = await loop.run_in_executor(None, queue.submit, spec)
            deadline = loop.time() + timeout
            while queue.status(job["id"]) not in JOB_TERMINAL:
                assert loop.time() < deadline, (
                    f"{job['id']} did not settle in time"
                )
                await asyncio.sleep(0.02)
            jobs.append(queue.jobs[job["id"]])
    finally:
        await shard.stop()
    return jobs


async def run_job(queue, shard, spec, timeout: float = 60.0) -> dict:
    """Submit and drive the shard until the job is terminal."""
    (job,) = await run_jobs(queue, shard, [spec], timeout)
    return job


def span_outcomes(queue, job_id: str) -> dict[str, list]:
    """Each service span name's end outcomes, in end order, after
    checking that every service span of the job's trace begins once and
    ends once, after its begin."""
    begun: dict[int, str] = {}
    ended: dict[int, str | None] = {}
    for row in queue.traces.events(queue.job_trace(job_id)):
        if row["span"] >> SPAN_ID_BITS:  # a worker-side span
            continue
        if row["kind"] == "span.begin":
            assert row["span"] not in begun, row
            begun[row["span"]] = row["name"]
        else:
            assert row["span"] in begun and row["span"] not in ended, row
            ended[row["span"]] = row.get("outcome")
    assert ended.keys() == begun.keys()
    outcomes: dict[str, list] = {}
    for span, outcome in ended.items():
        outcomes.setdefault(begun[span], []).append(outcome)
    return outcomes


def reasons(events, job_id: str, name: str) -> list[str]:
    """The ``reason`` of each ``name`` event on the job's stream."""
    return [r["reason"] for r in events.for_job(job_id) if r["event"] == name]


class TestCrashRecovery:
    def test_worker_crash_mid_lease_reenqueues_exactly_once(
        self, tmp_path, monkeypatch,
    ):
        # Crash the first attempt; the replacement pool (patched to a
        # plain thread executor) completes the retry.  The contract:
        # exactly one cell.retried{worker_death}, then success.
        from repro.service import workers as workers_module

        replacement = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(workers_module, "warm_pool",
                            lambda _n, **_kw: replacement)
        monkeypatch.setattr(workers_module, "retire_pool",
                            lambda *_a, **_kw: None)

        async def scenario():
            events, queue, store, shard = build(
                tmp_path, CrashingExecutor(crashes=1),
            )
            job = await run_job(queue, shard, SPEC)
            assert job["status"] == "done"
            names = [r["event"] for r in events.records]
            assert names.count("cell.retried") == 1
            (retried,) = events.named("cell.retried")
            assert retried["reason"] == "worker_death"
            # The crash consumed one lease; the retry simulated.
            assert names.count("cell.started") == 2
            assert names.count("cell.finished") == 1

        asyncio.run(scenario())

    def test_repeated_crashes_exhaust_the_budget_and_fail_the_job(
        self, tmp_path, monkeypatch,
    ):
        from repro.service import workers as workers_module

        crasher = CrashingExecutor(crashes=99)
        monkeypatch.setattr(workers_module, "warm_pool",
                            lambda _n, **_kw: crasher)
        monkeypatch.setattr(workers_module, "retire_pool",
                            lambda *_a, **_kw: None)

        async def scenario():
            events, queue, _store, shard = build(tmp_path, crasher)
            job = await run_job(queue, shard, SPEC)
            assert job["status"] == "failed"
            names = [r["event"] for r in events.records]
            assert names.count("cell.retried") == 1  # budget: exactly one
            assert names.count("cell.failed") == 1
            completed = events.named("job.completed")
            assert completed[-1]["reason"] == "failed"

        asyncio.run(scenario())

    def test_broken_injected_executor_never_retires_warm_pools(
        self, tmp_path, monkeypatch,
    ):
        # The shard did not create its executor, so it must not tear
        # down a warm pool — retire_pool is keyed by (width,
        # initializer) and a same-width pool could belong to another
        # component (e.g. a bench sweep) in this process.
        from repro.service import workers as workers_module

        retired: list = []
        replacement = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(workers_module, "warm_pool",
                            lambda *_a, **_kw: replacement)
        monkeypatch.setattr(workers_module, "retire_pool",
                            lambda *a, **kw: retired.append((a, kw)))

        async def scenario():
            _events, queue, _store, shard = build(
                tmp_path, CrashingExecutor(crashes=1),
            )
            job = await run_job(queue, shard, SPEC)
            assert job["status"] == "done"
            assert retired == []

        asyncio.run(scenario())

    def test_raising_cell_retries_as_worker_error(self, tmp_path):
        async def scenario():
            events, queue, _store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            # An unknown benchmark cannot get this far through spec
            # validation, so inject the failure at the cell level.
            job = queue.submit(SPEC)
            fingerprint = job["cells"][0]
            queue.lease("w0")
            queue.fail(fingerprint, "worker_error")
            (retried,) = events.named("cell.retried")
            assert retried["reason"] == "worker_error"
            assert queue.cells[fingerprint]["state"] == "queued"

        asyncio.run(scenario())

    def test_a_fuzz_cell_an_older_queue_left_fails_its_job(self, tmp_path):
        # Older queues also took {"kind": "fuzz"} specs.  A campaign
        # cell one left queued is no simulation cell: its run raises,
        # and the retry budget ends its job.
        root = tmp_path / "queue"
        root.mkdir()
        fingerprint = "fuzz-0123456789abcdef"
        (root / "state.json").write_text(json.dumps({
            "seq": 1,
            "jobs": {"job-000001": {
                "id": "job-000001",
                "spec": {"kind": "fuzz", "seeds": [1], "budget": 8,
                         "protocols": ["mesi"], "interconnect": "bus",
                         "priority": 0},
                "priority": 0, "cells": [fingerprint], "status": "queued",
                "reason": None, "trace": "job-000001", "span": None,
            }},
            "cells": {fingerprint: {
                "fingerprint": fingerprint, "kind": "fuzz", "seed": 1,
                "budget": 8, "protocols": ["mesi"], "interconnect": "bus",
                "state": "queued", "jobs": ["job-000001"], "retries": 0,
                "order": 1, "trace": "job-000001", "job_span": None,
                "lease_span": None, "enqueued_at": 0.0,
            }},
            "terminal": [],
        }))

        async def scenario():
            events, queue, _store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30
            await shard.start()
            try:
                while queue.status("job-000001") not in JOB_TERMINAL:
                    assert loop.time() < deadline, "job did not settle"
                    await asyncio.sleep(0.02)
            finally:
                await shard.stop()
            assert queue.status("job-000001") == "failed"
            for name in ("cell.retried", "cell.failed"):
                assert reasons(events, "job-000001", name) == ["worker_error"]

        asyncio.run(scenario())


class TestOwnedOutcomes:
    """The worker that leased a cell reports its outcome whatever fails
    while it holds the cell, and then leases the next one."""

    SECOND = {**SPEC, "seeds": [2]}

    def test_a_pool_broken_while_idle_is_retired_and_the_cell_retried(
        self, tmp_path, monkeypatch,
    ):
        # The shard's own warm pool broke between tasks, so its submit
        # raises: it is retired, the cell retried once as worker_death
        # in a fresh pool, and the same worker runs the next job.
        pools = iter([BrokenWhileIdle(), ThreadPoolExecutor(max_workers=1)])
        retired: list = []
        monkeypatch.setattr(workers_module, "warm_pool",
                            lambda *_a, **_kw: next(pools))
        monkeypatch.setattr(workers_module, "retire_pool",
                            lambda *a, **_kw: retired.append(a))
        monkeypatch.setattr(workers_module, "run_cell",
                            lambda *_args: {"cycles": 1})

        async def scenario():
            events, queue, _store, shard = build(tmp_path, None)
            faulted, second = await run_jobs(
                queue, shard, [SPEC, self.SECOND], timeout=10,
            )
            assert faulted["status"] == second["status"] == "done"
            assert retired == [(1,)]
            assert reasons(events, faulted["id"], "cell.retried") == [
                "worker_death",
            ]
            assert reasons(events, faulted["id"], "job.completed") == ["done"]
            outcomes = span_outcomes(queue, faulted["id"])
            assert outcomes["cell.run"] == ["worker_death", "done"]
            assert outcomes["cell.lease"] == ["worker_death", "done"]

        asyncio.run(scenario())

    @pytest.mark.parametrize("faults, status", [(1, "done"), (2, "failed")])
    def test_a_store_write_that_raises_hands_the_cell_back(
        self, tmp_path, monkeypatch, faults, status,
    ):
        # The run finished and its cell.run span says so; the write
        # after it failed, so the lease ends worker_error and the
        # retry budget decides: one fault retries, two fail the job.
        monkeypatch.setattr(workers_module, "run_cell",
                            lambda *_args: {"cycles": 1})

        async def scenario():
            events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            write = store.store
            writes: list[str] = []

            def flaky_store(fingerprint, doc):
                writes.append(fingerprint)
                if len(writes) <= faults:
                    raise OSError(28, "No space left on device")
                write(fingerprint, doc)

            store.store = flaky_store
            faulted, second = await run_jobs(
                queue, shard, [SPEC, self.SECOND], timeout=10,
            )
            assert faulted["status"] == status
            assert second["status"] == "done"
            assert reasons(events, faulted["id"], "cell.retried") == [
                "worker_error",
            ]
            assert reasons(events, faulted["id"], "cell.failed") == (
                ["worker_error"] if status == "failed" else []
            )
            assert reasons(events, faulted["id"], "job.completed") == [status]
            outcomes = span_outcomes(queue, faulted["id"])
            assert outcomes["cell.run"] == ["done", "done"]
            assert outcomes["cell.lease"] == (
                ["worker_error", "done"] if status == "done"
                else ["worker_error", "worker_error"]
            )

        asyncio.run(scenario())

    def test_a_lost_report_that_raises_keeps_the_worker_leasing(
        self, tmp_path, monkeypatch,
    ):
        # The store write fails, and so does the journal append of the
        # report that hands the cell back.  The retry is already in
        # memory, so the worker logs the report and keeps leasing; the
        # completion's append journals the keys the failed one left.
        monkeypatch.setattr(workers_module, "run_cell",
                            lambda *_args: {"cycles": 1})

        async def scenario():
            events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            write, fail, commit = store.store, queue.fail, queue._commit
            writes: list[str] = []
            reports: list[str] = []

            def flaky_store(fingerprint, doc):
                writes.append(fingerprint)
                if len(writes) == 1:
                    raise OSError(28, "No space left on device")
                write(fingerprint, doc)

            def full_disk():
                raise OSError(28, "No space left on device")

            def flaky_report(fingerprint, reason):
                reports.append(fingerprint)
                queue._commit = full_disk if len(reports) == 1 else commit
                try:
                    fail(fingerprint, reason)
                finally:
                    queue._commit = commit

            store.store = flaky_store
            queue.fail = flaky_report
            faulted, second = await run_jobs(
                queue, shard, [SPEC, self.SECOND], timeout=10,
            )
            assert faulted["status"] == second["status"] == "done"
            assert len(reports) == 1
            assert reasons(events, faulted["id"], "cell.retried") == [
                "worker_error",
            ]
            assert reasons(events, faulted["id"], "job.completed") == ["done"]
            outcomes = span_outcomes(queue, faulted["id"])
            assert outcomes["cell.lease"] == ["worker_error", "done"]
            # What the journal holds agrees: a restart sees both done.
            reloaded = JobQueue(tmp_path / "queue", events=EventLog())
            assert reloaded.status(faulted["id"]) == "done"
            assert reloaded.status(second["id"]) == "done"

        asyncio.run(scenario())


class TestCacheServing:
    def test_second_run_is_served_from_cache(self, tmp_path):
        async def scenario():
            events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            job = await run_job(queue, shard, SPEC)
            assert job["status"] == "done"
            # Same spec again: the finished cell left the live set,
            # so it re-enqueues and is then served without running.
            job2 = await run_job(queue, shard, SPEC)
            assert job2["status"] == "done"
            names = [r["event"] for r in events.records]
            assert names.count("cell.cache_hit") == 1
            assert names.count("cell.started") == 1

        asyncio.run(scenario())

    def test_service_summary_matches_serial_matrix_runner(self, tmp_path):
        async def scenario():
            _events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            job = await run_job(queue, shard, SPEC)
            serial = MatrixRunner(
                scale=SPEC["scale"], results_dir=tmp_path / "serial",
                verbose=False,
            )
            expected = serial.run_one("radiosity", "base", 1)
            got = store.get(job["cells"][0])
            assert got is not None
            assert summaries_equal(expected, got["summary"])

        asyncio.run(scenario())

    def test_cell_a_matrix_runner_stored_is_a_cache_hit(self, tmp_path):
        # One store, one key: the runner and the service share cells.
        MatrixRunner(
            scale=SPEC["scale"], results_dir=tmp_path / "results",
            verbose=False,
        ).run_matrix(
            benchmarks=SPEC["benchmarks"], techniques=SPEC["techniques"],
            seeds=SPEC["seeds"],
        )

        async def scenario():
            events, queue, _store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            job = await run_job(queue, shard, SPEC)
            assert job["status"] == "done"
            names = [r["event"] for r in events.records]
            assert names.count("cell.cache_hit") == 1
            assert "cell.started" not in names

        asyncio.run(scenario())

    def test_torn_result_is_simulated_not_served(self, tmp_path):
        async def scenario():
            events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            job = await run_job(queue, shard, SPEC)
            path = tmp_path / "results" / f"{job['cells'][0]}.json"
            whole = json.loads(path.read_text())
            path.write_text(path.read_text()[:100])
            job2 = await run_job(queue, shard, SPEC)
            assert job2["status"] == "done"
            names = [r["event"] for r in events.records]
            assert names.count("cell.started") == 2
            assert "cell.cache_hit" not in names
            assert summaries_equal(
                store.get(job["cells"][0])["summary"], whole["summary"],
            )

        asyncio.run(scenario())


class TestResultStore:
    def test_fingerprint_index_resolves_results(self, tmp_path):
        async def scenario():
            _events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            job = await run_job(queue, shard, SPEC)
            doc = store.get(job["cells"][0])
            assert doc is not None
            assert doc["benchmark"] == "radiosity"
            assert doc["summary"]["cycles"] > 0

        asyncio.run(scenario())

    def test_unknown_fingerprint_is_none(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        assert store.get("0123456789abcdef") is None

    def test_index_survives_reload(self, tmp_path):
        async def scenario():
            _events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            job = await run_job(queue, shard, SPEC)
            reloaded = ResultStore(tmp_path / "results")
            assert reloaded.get(job["cells"][0]) == store.get(job["cells"][0])

        asyncio.run(scenario())


def spy_leases(queue, idle_after: int):
    """Record every ``queue.lease`` result.  Returns the list, an event
    set (on the running loop) once ``idle_after`` leases came back
    empty, i.e. once that many workers found nothing to do, and one
    set once a lease took a cell."""
    loop = asyncio.get_running_loop()
    results: list = []
    idle, took = asyncio.Event(), asyncio.Event()
    lease = queue.lease

    def spy(worker_id):
        cell = lease(worker_id)
        results.append(cell)
        if cell is not None:
            loop.call_soon_threadsafe(took.set)
        elif results.count(None) == idle_after:
            loop.call_soon_threadsafe(idle.set)
        return cell

    queue.lease = spy
    return results, idle, took


class TestWakeOnSubmit:
    """Idle workers sleep until a submit or a retry wakes them."""

    def test_idle_shard_does_not_poll(self, tmp_path):
        async def scenario():
            _events, queue, _store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1), workers=2,
            )
            results, idle, _took = spy_leases(queue, idle_after=2)
            await shard.start()
            try:
                await asyncio.wait_for(idle.wait(), timeout=10)
                # Long enough for several 50 ms polls, had there been any.
                await asyncio.sleep(0.3)
            finally:
                await shard.stop()
            assert results == [None, None]

        asyncio.run(scenario())

    def test_submit_to_an_idle_shard_is_leased_without_a_sleep(
        self, tmp_path, monkeypatch,
    ):
        from repro.service import workers as workers_module

        monkeypatch.setattr(
            workers_module, "run_cell", lambda *_args: {"cycles": 1},
        )

        async def scenario():
            _events, queue, _store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            loop = asyncio.get_running_loop()
            results, idle, took = spy_leases(queue, idle_after=1)
            await shard.start()
            try:
                await asyncio.wait_for(idle.wait(), timeout=10)
                sleeps: list[float] = []
                sleep = asyncio.sleep

                def recording_sleep(delay, *args, **kwargs):
                    sleeps.append(delay)
                    return sleep(delay, *args, **kwargs)

                monkeypatch.setattr(asyncio, "sleep", recording_sleep)
                await loop.run_in_executor(
                    None, queue.submit, {**SPEC, "techniques": ["base"]},
                )
                await asyncio.wait_for(took.wait(), timeout=10)
                monkeypatch.setattr(asyncio, "sleep", sleep)
            finally:
                await shard.stop()
            assert sleeps == []
            # The idle lease, then the woken one that took the cell.
            assert results[0] is None and results[1] is not None

        asyncio.run(scenario())

    def test_a_wake_during_a_lease_is_not_lost(self, tmp_path, monkeypatch):
        # A 2-cell job is submitted while one worker's empty lease is
        # still in flight and the other worker sleeps.  The sleeper
        # wakes and takes one cell; the worker whose lease raced the
        # submit must still see the wake and take the other.  Each
        # cell blocks until both run at once, so a lost wake leaves
        # the second cell queued and breaks the first cell's barrier.
        from repro.service import workers as workers_module

        barrier = threading.Barrier(2, timeout=10)

        def blocking_run_cell(*_args):
            barrier.wait()
            return {"cycles": 1}

        monkeypatch.setattr(workers_module, "run_cell", blocking_run_cell)

        async def scenario():
            events, queue, _store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=2), workers=2,
            )
            loop = asyncio.get_running_loop()
            lease = queue.lease
            calls: list = []
            release = threading.Event()
            idle, took = asyncio.Event(), asyncio.Event()

            def spy(worker_id):
                cell = lease(worker_id)
                calls.append(cell)
                if len(calls) == 1:
                    release.wait(timeout=10)  # hold the first lease
                elif len(calls) == 2:
                    loop.call_soon_threadsafe(idle.set)
                if cell is not None:
                    loop.call_soon_threadsafe(took.set)
                return cell

            queue.lease = spy
            await shard.start()
            try:
                await asyncio.wait_for(idle.wait(), timeout=10)
                job = await loop.run_in_executor(
                    None, queue.submit,
                    {**SPEC, "techniques": ["base", "emesti"]},
                )
                await asyncio.wait_for(took.wait(), timeout=10)
                release.set()
                deadline = loop.time() + 30
                while queue.status(job["id"]) not in ("done", "failed"):
                    assert loop.time() < deadline, "job did not settle"
                    await asyncio.sleep(0.02)
            finally:
                release.set()
                await shard.stop()
            assert calls[:2] == [None, None]
            assert queue.status(job["id"]) == "done"
            names = [r["event"] for r in events.records]
            assert names.count("cell.started") == 2
            assert "cell.retried" not in names

        asyncio.run(scenario())
