"""EventLog ring truncation vs live event streams (ISSUE 10 sat. 3).

A deliberately tiny global ring (16 records) and short terminal-job
retention (the queue's ``RETAIN_TERMINAL``, patched to 2), exercised
through real HTTP ``GET /jobs/{id}/events`` follows: a job's stream
must replay its complete history even after the global ring wrapped
past its records, the overwrites must be surfaced on ``/metrics`` as
``repro_service_events_dropped_total``, and a job pruned from view
retention replays empty (but the stream still terminates cleanly).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import events as events_module
from repro.service import queue as queue_module
from repro.service.api import Service
from repro.service.client import ServiceClient, ServiceError

from .harness import ServiceHarness

RING = 16


def _spec(seed):
    return {
        "benchmarks": ["radiosity"], "techniques": ["base"],
        "seeds": [seed], "scale": 0.05,
    }


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A service whose EventLog wraps after 16 records and whose queue
    keeps two terminal jobs."""
    root = tmp_path_factory.mktemp("truncation")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(queue_module, "RETAIN_TERMINAL", 2)
        patch.setattr(events_module, "MAX_RECORDS", RING)
        with ServiceHarness(
            root, workers=1, executor=ThreadPoolExecutor(max_workers=1),
            telemetry_interval=0,
        ) as harness:
            yield harness


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.host, service.port)


@pytest.fixture(scope="module")
def wrapped(service, client):
    """Run job A, then enough jobs to wrap the ring past A's records."""
    job_a, events_a = client.submit_and_wait(_spec(1))
    # Each 1-cell job emits 6 events; three more jobs push 18 records
    # through the 16-slot ring, overwriting all of A's.
    followers = [client.submit_and_wait(_spec(seed))[0] for seed in (2, 3, 4)]
    return job_a, events_a, followers


class TestRingTruncationOverHttp:
    def test_live_follow_saw_the_full_lifecycle(self, wrapped):
        _job_a, events_a, _followers = wrapped
        names = [e["event"] for e in events_a]
        assert names == [
            "cell.enqueued", "job.enqueued", "cell.leased", "cell.started",
            "cell.finished", "job.completed",
        ]

    def test_global_ring_wrapped_and_dropped_is_counted(
        self, wrapped, service, client,
    ):
        log = service.service.events
        occ = log.occupancy()
        assert occ["capacity"] == RING
        assert occ["records"] == RING
        assert occ["dropped"] == log.dropped > 0
        # Surfaced on /metrics (the satellite-2 counter).
        text = client.metrics()
        assert f"repro_service_events_dropped_total {log.dropped}" in text

    def test_replay_survives_global_ring_wrap(self, wrapped, client):
        # Per-job views are plain lists, not windows into the global
        # ring: a retained job must replay completely no matter what
        # the ring overwrote.
        _job_a, _events_a, followers = wrapped
        newest = followers[-1]
        events = list(client.follow(newest["id"]))
        names = [e["event"] for e in events]
        assert names[0] == "cell.enqueued" and names[-1] == "job.completed"
        assert len(names) == 6

    def test_pruned_job_view_replays_empty_but_terminates(
        self, wrapped, client,
    ):
        # Three jobs completed after A with two terminal jobs kept: A's
        # per-job view is pruned.  The stream still answers 200 (the
        # queue knows the job) and ends immediately on terminal
        # status with nothing to replay.
        job_a, _events_a, _followers = wrapped
        assert list(client.follow(job_a["id"])) == []

    def test_expired_job_answers_404_expired(self, wrapped, client):
        # The queue drops A's record with its view: A's id reads as
        # expired, an id the counter never minted as unknown.
        job_a, _events_a, _followers = wrapped
        with pytest.raises(ServiceError, match=rf"\(404\).*job {job_a['id']} expired"):
            client.job(job_a["id"])
        with pytest.raises(ServiceError, match=r"\(404\).*no job job-999999"):
            client.job("job-999999")

    def test_retained_job_still_replays_after_wrap(self, wrapped, client):
        # The second-newest follower is inside the retention window.
        _job_a, _events_a, followers = wrapped
        kept = followers[-2]
        names = [e["event"] for e in client.follow(kept["id"])]
        assert names[-1] == "job.completed" and len(names) == 6


class _Writer:
    """Collects what a handler writes (a StreamWriter stand-in)."""

    def __init__(self):
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


class TestStreamEndsWithCompletion:
    def test_completion_between_snapshot_and_status_read_is_streamed(
        self, tmp_path,
    ):
        # Force the race: the job completes right after the stream
        # snapshots its records.  The stream must still end with
        # job.completed rather than stop on the terminal status.
        service = Service(tmp_path, telemetry_interval=0)
        job = service.queue.submit(_spec(1))
        snapshot = service.events.for_job
        calls = []

        def for_job(job_id):
            records = snapshot(job_id)
            if not calls:
                calls.append(job_id)
                service.queue.cancel(job_id)
            return records

        service.events.for_job = for_job
        writer = _Writer()
        asyncio.run(asyncio.wait_for(
            service._stream_events(job["id"], writer), timeout=30,
        ))
        body = writer.data.split(b"\r\n\r\n", 1)[1]
        events = [json.loads(line) for line in body.splitlines()]
        assert calls == [job["id"]]
        assert events[-1]["event"] == "job.completed"
        assert events[-1]["reason"] == "cancelled"
