"""Restart faults, in process: a fresh event log and trace store over
the same queue root stand for a restarted server.

Before the restart one job's cell is leased (the crash lands mid-cell)
and a second job is only queued.  After it, a shard on a thread
executor runs both jobs to done on a frozen clock, so no lease
expires.  What the restarted process tells about each job must hold
together: its stream has its cell's whole run, its trace's service
spans pair up, and the crashed cell is run and credited once.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.jobtrace import JobTraceStore
from repro.obs.tracer import SPAN_ID_BITS
from repro.service.events import EventLog
from repro.service.queue import JOB_TERMINAL, JobQueue
from repro.service.workers import ResultStore, WorkerShard


def _spec(seed: int) -> dict:
    return {
        "benchmarks": ["radiosity"], "techniques": ["base"],
        "seeds": [seed], "scale": 0.05,
    }


def _frozen() -> float:
    return 0.0


@pytest.fixture(scope="module")
def restarted(tmp_path_factory):
    """Crash with job-000001's cell leased and job-000002 queued, then
    run both to done in the restarted process."""
    root = tmp_path_factory.mktemp("restart")
    before = JobQueue(root / "queue", events=EventLog(), clock=_frozen)
    crashed = before.submit(_spec(1))["id"]
    before.lease("w0")
    queued = before.submit(_spec(2))["id"]

    events = EventLog()
    queue = JobQueue(
        root / "queue", events=events, traces=JobTraceStore(), clock=_frozen,
    )
    executor = ThreadPoolExecutor(max_workers=1)
    shard = WorkerShard(
        queue, ResultStore(root / "results"), events, executor=executor,
    )

    async def run_both() -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 60
        await shard.start()
        try:
            while any(
                queue.status(job) not in JOB_TERMINAL
                for job in (crashed, queued)
            ):
                assert loop.time() < deadline, "jobs did not settle in time"
                await asyncio.sleep(0.02)
        finally:
            await shard.stop()

    try:
        asyncio.run(run_both())
    finally:
        executor.shutdown()
    return queue, events, crashed, queued


def _names(events: EventLog, job: str) -> list[str]:
    return [r["event"] for r in events.for_job(job)]


class TestRestart:
    def test_a_job_queued_before_the_restart_streams_its_cell(self, restarted):
        _queue, events, _crashed, queued = restarted
        assert _names(events, queued) == [
            "cell.leased", "cell.started", "cell.finished", "job.completed",
        ]

    @pytest.mark.parametrize("which", ["crashed", "queued"])
    def test_service_spans_begin_once_and_end_after_their_begin(
        self, restarted, which,
    ):
        # The worker's cycle-clock spans number inside their cell.run
        # span's id block; only their begins carry the clock tag.
        queue, _events, crashed, queued = restarted
        job = crashed if which == "crashed" else queued
        rows = [
            r for r in queue.traces.events(queue.job_trace(job))
            if not r["span"] >> SPAN_ID_BITS
        ]
        begun: dict[int, dict] = {}
        ended: set[int] = set()
        for row in rows:
            span = row["span"]
            if row["kind"] == "span.begin":
                assert span not in begun, row
                assert row.get("parent") != span, row
                assert row.get("parent") in (None, *begun), row
                begun[span] = row
            else:
                assert span in begun and span not in ended, row
                ended.add(span)
        names = sorted(row["name"] for row in begun.values())
        assert names == ["cell.lease", "cell.run"]
        assert ended == set(begun)

    def test_the_cell_leased_at_the_crash_is_run_and_credited_once(
        self, restarted,
    ):
        queue, events, crashed, _queued = restarted
        names = _names(events, crashed)
        assert names.count("cell.leased") == 1
        assert names.count("cell.started") == 1
        assert names.count("cell.finished") == 1
        completed = [
            r["reason"] for r in events.for_job(crashed)
            if r["event"] == "job.completed"
        ]
        assert completed == ["done"]
        assert queue.status(crashed) == "done"
