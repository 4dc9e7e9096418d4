"""Pool faults with real fork pools and real SIGKILLs.

* A process that holds a pool (the warm pool, or a fuzz campaign's)
  is killed: each of its workers must exit within a stated bound,
  whether it was running a task or waiting for one, although no pipe
  it waits on ever reaches EOF.
* A pool worker is killed mid-cell: the shard must hand the cell back
  to the queue's retry budget once, run it again in a fresh pool and
  credit it once.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import retire_pool, run_cell
from repro.service import workers as workers_module
from repro.service.events import EventLog
from repro.service.queue import JOB_TERMINAL, JobQueue
from repro.service.workers import ResultStore, WorkerShard

#: Seconds a dead process's pool workers may take to exit.
EXIT_BOUND = 5.0

#: Processes that hold a 2-worker pool with work running, print the
#: workers' pids and sleep: the warm pool with one long task, and a
#: fuzz campaign's own pool.  The tag marks their command lines, so
#: teardown kills only processes this test started.
ORPHAN_TAG = "pool-orphan-probe"
HOLDERS = {
    "warm_pool": f"""# {ORPHAN_TAG}
import multiprocessing
import time

from repro.experiments.runner import warm_pool

pool = warm_pool(2)
task = pool.submit(time.sleep, 600)
while not task.running():
    time.sleep(0.01)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(600)
""",
    "fuzz_campaign": f"""# {ORPHAN_TAG}
import multiprocessing
import threading
import time

from repro.fuzz.campaign import FuzzOptions, run_campaign

options = FuzzOptions(seed=1, budget=100_000, workers=2)
threading.Thread(target=run_campaign, args=(options,), daemon=True).start()
while len(multiprocessing.active_children()) < 2:
    time.sleep(0.01)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(600)
""",
}


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (reaped, or a zombie awaiting it)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_gone(pids, bound: float = EXIT_BOUND) -> list[int]:
    """The pids still running after ``bound`` seconds."""
    deadline = time.monotonic() + bound
    while True:
        alive = [pid for pid in pids if not _gone(pid)]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def _kill_tagged(pid: int, tag: str) -> None:
    """SIGKILL ``pid`` if its command line carries ``tag``."""
    try:
        if tag.encode() in Path(f"/proc/{pid}/cmdline").read_bytes():
            os.kill(pid, signal.SIGKILL)
    except (FileNotFoundError, ProcessLookupError):
        pass


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process states in /proc",
)
@pytest.mark.parametrize("pool", sorted(HOLDERS))
def test_pool_workers_exit_with_the_process_that_forked_them(pool):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLDERS[pool]],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    pids: list[int] = []
    try:
        ready, _, _ = select.select([holder.stdout], [], [], 60)
        assert ready, "the pool holder printed no pids within 60 s"
        pids = [int(pid) for pid in holder.stdout.readline().split()]
        assert len(pids) == 2, pids
        holder.kill()
        holder.wait()
        assert _wait_gone(pids) == [], (
            f"pool workers outlived their parent by {EXIT_BOUND} s"
        )
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
        for pid in pids:
            _kill_tagged(pid, ORPHAN_TAG)


#: Set before the shard's pool forks, so its workers see it: a cell
#: writes its worker's pid beside this file, then waits while it exists.
HOLD: Path | None = None


def held_run_cell(*args):
    """``run_cell`` that first reports its pid and waits on :data:`HOLD`."""
    # Renamed into place, so the test never reads a half-written pid.
    written = HOLD.parent / "worker.pid.tmp"
    written.write_text(str(os.getpid()))
    written.replace(HOLD.parent / "worker.pid")
    while HOLD.exists():
        time.sleep(0.02)
    return run_cell(*args)


SPEC = {
    "benchmarks": ["radiosity"], "techniques": ["base"], "seeds": [1],
    "scale": 0.02,
}


def _retire_shard_pool() -> None:
    """Drop the shard's warm pool, so the next lease forks a fresh one."""
    retire_pool(1, initializer=workers_module._close_inherited_inet_sockets)


def test_a_pool_worker_killed_mid_cell_is_retried_once_and_credited_once(
    tmp_path, monkeypatch,
):
    hold = tmp_path / "hold"
    hold.touch()
    monkeypatch.setattr(sys.modules[__name__], "HOLD", hold)
    # The shard reads run_cell from its module's globals at call time.
    monkeypatch.setattr(workers_module, "run_cell", held_run_cell)
    _retire_shard_pool()
    events = EventLog()
    queue = JobQueue(tmp_path / "queue", events=events)
    shard = WorkerShard(queue, ResultStore(tmp_path / "results"), events)
    killed: list[int] = []

    async def scenario() -> str:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 60
        job = queue.submit(SPEC)["id"]
        await shard.start()
        try:
            pid_file = tmp_path / "worker.pid"
            while not (
                pid_file.exists()
                and any(r["event"] == "cell.started" for r in events.for_job(job))
            ):
                assert loop.time() < deadline, "the cell never started"
                await asyncio.sleep(0.02)
            killed.append(int(pid_file.read_text()))
            os.kill(killed[0], signal.SIGKILL)
            hold.unlink()
            while queue.status(job) not in JOB_TERMINAL:
                assert loop.time() < deadline, "the job did not settle"
                await asyncio.sleep(0.02)
        finally:
            await shard.stop()
        return job

    try:
        job = asyncio.run(scenario())
    finally:
        hold.unlink(missing_ok=True)
        _retire_shard_pool()
    view = events.for_job(job)
    assert [r["event"] for r in view] == [
        "cell.enqueued", "job.enqueued", "cell.leased", "cell.started",
        "cell.retried", "cell.leased", "cell.started", "cell.finished",
        "job.completed",
    ]
    assert [r["reason"] for r in view if r["event"] == "cell.retried"] == [
        "worker_death",
    ]
    assert view[-1]["reason"] == "done"
    assert queue.status(job) == "done"
    assert [r["event"] for r in events.records].count("cell.finished") == 1
    assert _wait_gone(killed) == []
