"""Thread-safety regressions for the service (simlint SL201/SL202).

The whole-program lint pass moved every blocking queue/store call onto
executor threads, which makes JobQueue/EventLog genuinely concurrent
objects (the stateless ResultStore's concurrent writes are covered in
tests/experiments/test_store.py).  These tests pin the behaviours that
protect:

* queue state survives concurrent submit/lease/complete hammering;
* the locked accessors the API layer uses instead of reading
  ``queue.jobs`` directly;
* EventLog subscribers run *outside* the log lock (a subscriber can
  touch the log from another thread without deadlocking an emitter);
* ``Service._wake_streams`` wakes the stream event from a foreign
  thread via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import threading

from repro.service.events import EventLog
from repro.service.queue import JobQueue

SPEC = {
    "benchmarks": ["radiosity"],
    "techniques": ["base", "emesti"],
    "seeds": [1, 2, 3],
    "scale": 0.05,
}


def make_queue(tmp_path) -> JobQueue:
    return JobQueue(tmp_path / "queue", events=EventLog())


def test_concurrent_submits_keep_state_consistent(tmp_path):
    """Racing submits must neither lose jobs nor duplicate cells."""
    queue = make_queue(tmp_path)
    errors: list[BaseException] = []

    def submit(seed: int) -> None:
        try:
            queue.submit({**SPEC, "seeds": [seed]})
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(queue.jobs) == 8
    # 8 seeds x 2 techniques, every fingerprint unique.
    assert len(queue.cells) == 16


def test_concurrent_lease_never_double_leases(tmp_path):
    """Each cell is handed to exactly one of the racing workers."""
    queue = make_queue(tmp_path)
    queue.submit(SPEC)
    leased: list[str] = []
    lock = threading.Lock()

    def worker(worker_id: str) -> None:
        while True:
            cell = queue.lease(worker_id)
            if cell is None:
                return
            with lock:
                leased.append(cell["fingerprint"])
            queue.complete(cell["fingerprint"])

    threads = [
        threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(leased) == len(set(leased)) == 6
    job = next(iter(queue.jobs.values()))
    assert job["status"] == "done"


def test_locked_accessors_cover_the_api_reads(tmp_path):
    """status is what ``GET /jobs/{id}/events`` polls with; it must
    match the jobs dict and raise on unknown ids."""
    queue = make_queue(tmp_path)
    job = queue.submit(SPEC)
    assert queue.status(job["id"]) == job["status"]
    try:
        queue.status("nope")
    except KeyError:
        pass
    else:
        raise AssertionError("status() must raise KeyError on unknown ids")


def test_subscribers_run_outside_the_event_log_lock():
    """A subscriber may block on another thread that itself reads the
    log.  If emit() still held the lock when calling subscribers,
    this would deadlock (the reader waits for the lock, the
    subscriber waits for the reader)."""
    log = EventLog()
    reader_done = threading.Event()

    def reader() -> None:
        log.named("job.enqueued")  # takes the log lock
        reader_done.set()

    def subscriber(_record) -> None:
        threading.Thread(target=reader).start()
        assert reader_done.wait(timeout=10), (
            "reader could not take the log lock while a subscriber ran"
        )

    log.subscribe(subscriber)
    log.emit("job.enqueued", job="j1", cells=2)
    assert reader_done.is_set()


def test_wake_streams_from_foreign_thread(tmp_path):
    """Event emits happen on executor threads; the stream wake-up
    must marshal onto the loop with call_soon_threadsafe."""
    from repro.service.api import Service

    async def main() -> None:
        service = Service(tmp_path)
        service._loop = asyncio.get_running_loop()
        service._wake.clear()
        threading.Thread(target=service._wake_streams).start()
        await asyncio.wait_for(service._wake.wait(), timeout=10)

    asyncio.run(main())


def test_wake_streams_without_a_loop_sets_directly(tmp_path):
    """Before start() (synchronous state-machine tests) there is no
    loop; the wake must not require one."""
    from repro.service.api import Service

    service = Service(tmp_path)
    service._wake_streams()
