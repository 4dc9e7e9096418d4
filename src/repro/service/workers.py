"""Warm worker-pool shard: leases cells, runs them, stores results.

The shard is a set of asyncio worker tasks over one process pool (the
runner's :func:`~repro.experiments.runner.warm_pool`, so pool startup
is paid once per service lifetime, not per job) plus a lease *reaper*.
Each worker loops:

1. lease the best queued cell (``cell.leased``);
2. probe the :class:`~repro.experiments.store.ResultStore` under the
   cell's fingerprint — a hit is served without simulation
   (``cell.cache_hit``) and completed immediately;
3. otherwise simulate via the existing
   :func:`~repro.experiments.runner.run_cell` in the executor,
   renewing the lease by heartbeat while the future is pending
   (``cell.started`` ... ``cell.finished``);
4. on executor death or a raising cell, report the lease lost
   (``cell.retried{reason}`` / ``cell.failed{reason}`` come from the
   queue's retry budget) and, for a broken pool, retire it so the
   next lease gets a fresh one.

The reaper periodically calls
:meth:`~repro.service.queue.JobQueue.expire_leases`, which is what
recovers cells whose worker died *without* reporting (process kill):
the heartbeat stops, the deadline passes, the cell re-enqueues.

Results go to the same :class:`~repro.experiments.store.ResultStore`
a :class:`~repro.experiments.runner.MatrixRunner` uses: one file per
cell fingerprint, simulation summaries and fuzz reports alike, so
``GET /results/{fingerprint}`` is one file read and a cell either of
them stored is served to both.
"""

from __future__ import annotations

import asyncio
import logging
import os
from concurrent.futures import BrokenExecutor, Executor
from typing import Any

from repro.common.config import scaled_config
from repro.experiments.runner import (
    cell_config,
    retire_pool,
    run_cell,
    warm_pool,
)
from repro.experiments.store import ResultStore
from repro.fuzz.campaign import run_fuzz_cell

from .events import EventLog
from .queue import JobQueue

log = logging.getLogger("repro.service")

#: Idle worker poll cadence (seconds) when the queue is empty.
IDLE_POLL = 0.05


def _close_inherited_inet_sockets() -> None:
    """Pool-worker initializer: drop TCP fds inherited over fork.

    A forked pool worker inherits every open fd, including the HTTP
    listener and any client connections accepted before the fork.  An
    inherited connection fd is fatal to event streaming: the server's
    ``close()`` cannot send FIN while a long-lived worker still holds
    a duplicate, so the client never sees end-of-stream and blocks
    forever.  Closing only AF_INET/AF_INET6 sockets leaves the pool's
    own plumbing (pipes, AF_UNIX pairs) untouched.
    """
    import socket
    import stat

    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (FileNotFoundError, NotADirectoryError):  # non-procfs platforms
        fds = list(range(3, 4096))
    for fd in fds:
        try:
            if not stat.S_ISSOCK(os.fstat(fd).st_mode):
                continue
            probe = socket.socket(fileno=os.dup(fd))
            family = probe.family
            probe.close()
            if family in (socket.AF_INET, socket.AF_INET6):
                os.close(fd)
        except OSError:
            continue


class WorkerShard:
    """N async workers + a lease reaper over one executor."""

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        events: EventLog,
        workers: int = 1,
        executor: Executor | None = None,
        name: str = "shard0",
    ):
        self.queue = queue
        self.store = store
        self.events = events
        # Service spans land in the queue's per-job trace store, so
        # the lease span a worker parents under lives where the job
        # span does.
        self.traces = queue.traces
        self.workers = max(1, workers)
        self._executor = executor
        # Whether _executor came from warm_pool (ours to retire) or
        # was injected by the caller (theirs to shut down).
        self._owns_pool = False
        self.name = name
        self._tasks: list[asyncio.Task] = []
        self._stopping = False
        #: Count of cells actually simulated (not cache-served) —
        #: the smoke test's "zero new simulations" probe.
        self.simulated = 0
        #: Count of fuzz campaigns actually run (not cache-served).
        self.fuzzed = 0
        #: Workers currently processing a leased cell (utilization
        #: telemetry).  Loop-thread only — no lock needed.
        self.busy = 0

    def executor(self) -> Executor:
        """The shard's executor (warm process pool by default)."""
        if self._executor is None:
            self._executor = warm_pool(
                self.workers, initializer=_close_inherited_inet_sockets,
            )
            self._owns_pool = True
        return self._executor

    async def start(self) -> None:
        """Spawn the worker tasks and the lease reaper."""
        self._stopping = False
        for i in range(self.workers):
            worker_id = f"{self.name}/w{i}"
            self._tasks.append(
                asyncio.create_task(self._worker(worker_id))
            )
        self._tasks.append(asyncio.create_task(self._reaper()))

    async def stop(self) -> None:
        """Cancel every task (every stored cell is already on disk)."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def _reaper(self) -> None:
        """Periodically expire dead leases (crashed/silent workers)."""
        period = max(self.queue.lease_ttl / 4, IDLE_POLL)
        loop = asyncio.get_running_loop()
        while not self._stopping:
            await asyncio.sleep(period)
            expired = await loop.run_in_executor(
                None, self.queue.expire_leases,
            )
            for fingerprint in expired:
                log.warning("lease expired on cell %s; re-enqueued",
                            fingerprint)

    async def _worker(self, worker_id: str) -> None:
        """One worker's lease -> serve/run -> complete loop.

        Queue calls rewrite ``state.json``; they run in the default
        thread pool so the event loop never blocks on disk (simlint
        SL201 — the callable is *passed* to run_in_executor, keeping
        it out of the coroutine's call graph).
        """
        loop = asyncio.get_running_loop()
        while not self._stopping:
            cell = await loop.run_in_executor(
                None, self.queue.lease, worker_id,
            )
            if cell is None:
                await asyncio.sleep(IDLE_POLL)
                continue
            self.busy += 1
            try:
                await self._process(worker_id, cell)
            finally:
                self.busy -= 1

    async def _await_leased(self, future, fingerprint: str,
                            worker_id: str):
        """Await an executor future, renewing the lease by heartbeat."""
        loop = asyncio.get_running_loop()
        heartbeat = max(self.queue.lease_ttl / 3, IDLE_POLL)
        while True:
            done, _pending = await asyncio.wait(
                {future}, timeout=heartbeat,
            )
            if done:
                return future.result()
            # Still running: renew the lease and keep waiting.
            await loop.run_in_executor(
                None, self.queue.heartbeat, fingerprint, worker_id,
            )

    async def _pool_died(self, fingerprint: str) -> None:
        """Handle a worker process dying mid-cell (BrokenExecutor).

        Retire the broken pool — but only when this shard created it
        via warm_pool, keyed with its own initializer, so an unrelated
        same-width pool (e.g. a bench sweep's) in this process is
        never torn down; an injected executor is the caller's to shut
        down.  Either way the next lease builds a fresh warm pool, and
        the cell goes back to the queue's retry budget.
        """
        if self._owns_pool:
            retire_pool(
                self.workers,
                initializer=_close_inherited_inet_sockets,
            )
        elif self._executor is not None:
            log.warning(
                "injected executor for shard %s broke; replacing "
                "it with a warm pool on the next lease", self.name,
            )
        self._executor = None
        self._owns_pool = False
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.queue.fail, fingerprint, "worker_death",
        )

    async def _process(self, worker_id: str, cell: dict[str, Any]) -> None:
        """Serve one leased cell: from the store when it holds the
        cell's fingerprint, otherwise by running it."""
        fingerprint = cell["fingerprint"]
        trace = cell.get("trace")
        loop = asyncio.get_running_loop()
        stored = await loop.run_in_executor(None, self.store.get, fingerprint)
        if stored is None:
            await self._run(worker_id, cell)
            return
        hit_span = (
            self.traces.span_begin(
                trace, "cell.cache_hit", parent=cell.get("lease_span"),
                fingerprint=fingerprint,
            )
            if trace is not None else None
        )
        self.events.emit(
            "cell.cache_hit", fingerprint=fingerprint, trace=trace,
        )
        if trace is not None:
            self.traces.span_end(trace, hit_span)
        await loop.run_in_executor(None, self.queue.complete, fingerprint)

    async def _run(self, worker_id: str, cell: dict[str, Any]) -> None:
        """Run one cell in the executor and store what it returns.

        Both kinds take the same steps: ``cell.started``, the
        ``cell.run`` span, a heartbeat-renewed executor run, and on
        executor death or a raising cell, the span ended and the cell
        handed back to the queue's retry budget.  A simulation stores
        its summary; a fuzz campaign stores its report and surfaces
        every finding as a ``cell.fuzz_finding`` event.
        """
        fingerprint = cell["fingerprint"]
        trace = cell.get("trace")
        fuzz = cell.get("kind") == "fuzz"
        loop = asyncio.get_running_loop()
        self.events.emit(
            "cell.started", fingerprint=fingerprint, worker=worker_id,
            trace=trace,
        )
        run_span = (
            self.traces.span_begin(
                trace, "cell.run", parent=cell.get("lease_span"),
                fingerprint=fingerprint, worker=worker_id,
            )
            if trace is not None else None
        )
        if fuzz:
            # run_fuzz_cell runs its campaign serially: this cell
            # already occupies a pool worker.
            call = (run_fuzz_cell, cell["seed"], cell["budget"],
                    tuple(cell["protocols"]), cell["interconnect"])
        else:
            # The trace context crosses the process-pool boundary, so
            # it is plain data only (simlint SL203) — run_cell traces
            # its coherence spans under this trace id and run span,
            # and ships the rows back inside the summary.
            trace_ctx = (
                {"trace": trace, "span": run_span}
                if trace is not None else None
            )
            # The *exact* config a serial MatrixRunner would use for
            # this cell — byte-identical summaries are the service's
            # contract.  ``run_cell`` is read from the module globals
            # here, at call time, so a replaced
            # ``repro.service.workers.run_cell`` is what the pool runs.
            call = (run_cell, cell_config(scaled_config(), cell["technique"]),
                    cell["benchmark"], cell["scale"], cell["seed"], False,
                    trace_ctx)
        future = loop.run_in_executor(self.executor(), *call)
        try:
            result = await self._await_leased(future, fingerprint, worker_id)
        except BrokenExecutor:
            if trace is not None:
                self.traces.span_end(trace, run_span, outcome="worker_death")
            await self._pool_died(fingerprint)
            return
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - any cell error retries
            log.warning("cell %s raised %s", fingerprint, exc)
            if trace is not None:
                self.traces.span_end(trace, run_span, outcome="worker_error")
            await loop.run_in_executor(
                None, self.queue.fail, fingerprint, "worker_error",
            )
            return
        if fuzz:
            self.fuzzed += 1
            doc, trace_doc = result, None
        else:
            self.simulated += 1
            # The worker's span rows ride back under summary["trace"];
            # pop them before storing so the stored summary stays
            # byte-identical to a serial run's.
            trace_doc = result.pop("trace", None)
            doc = {
                "benchmark": cell["benchmark"],
                "technique": cell["technique"],
                "seed": cell["seed"],
                "scale": cell["scale"],
                "summary": result,
            }
        if trace is not None:
            self.traces.span_end(trace, run_span, outcome="done")
            if trace_doc:
                self.traces.ingest(trace, trace_doc["rows"], trace_doc["dropped"])
        await loop.run_in_executor(None, self.store.store, fingerprint, doc)
        if fuzz:
            for finding in doc["findings"]:
                self.events.emit(
                    "cell.fuzz_finding", fingerprint=fingerprint,
                    finding=finding["kind"], trace=trace,
                )
        await loop.run_in_executor(None, self.queue.complete, fingerprint)
