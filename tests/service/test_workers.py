"""Worker shard failure paths: crash recovery, store serving.

The shard runs on a real asyncio loop (driven by ``asyncio.run``
inside each test) with a thread executor — no worker subprocesses, so
the failure injections are deterministic and fast.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.runner import MatrixRunner, summaries_equal
from repro.service.events import EventLog
from repro.service.queue import JobQueue
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


def build(tmp_path, executor, **queue_kwargs):
    """Queue + store + shard wired to one event log."""
    events = EventLog()
    queue = JobQueue(tmp_path / "queue", events=events, **queue_kwargs)
    store = ResultStore(tmp_path / "results")
    shard = WorkerShard(queue, store, events, workers=1, executor=executor)
    return events, queue, store, shard


async def run_job(queue, shard, spec, timeout: float = 60.0) -> dict:
    """Submit and drive the shard until the job is terminal."""
    job = queue.submit(spec)
    await shard.start()
    try:
        deadline = asyncio.get_running_loop().time() + timeout
        while queue.jobs[job["id"]]["status"] not in (
            "done", "failed", "cancelled",
        ):
            assert asyncio.get_running_loop().time() < deadline, (
                "job did not settle in time"
            )
            await asyncio.sleep(0.02)
    finally:
        await shard.stop()
    return queue.jobs[job["id"]]


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
            assert shard.simulated == 1

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


class TestCacheServing:
    def test_second_run_is_served_from_cache(self, tmp_path):
        async def scenario():
            events, queue, store, shard = build(
                tmp_path, ThreadPoolExecutor(max_workers=1),
            )
            job = await run_job(queue, shard, SPEC)
            assert job["status"] == "done"
            assert shard.simulated == 1
            # Same spec again: the finished cell left the live set,
            # so it re-enqueues and is then served without running.
            job2 = await run_job(queue, shard, SPEC)
            assert job2["status"] == "done"
            assert shard.simulated == 1  # no new simulation
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
            assert shard.simulated == 0

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
