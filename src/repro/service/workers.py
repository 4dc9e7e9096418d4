"""Warm worker-pool shard: leases cells, runs them, stores results.

The shard is a set of asyncio worker tasks over one process pool (the
runner's :func:`~repro.experiments.runner.warm_pool`, so pool startup
is paid once per service lifetime, not per job).  Each worker loops:

1. lease the best queued cell (``cell.leased``);
2. probe the :class:`~repro.experiments.store.ResultStore` under the
   cell's fingerprint — a hit is served without simulation
   (``cell.cache_hit``) and completed immediately;
3. otherwise simulate via the existing
   :func:`~repro.experiments.runner.run_cell` in the executor and store
   what it returns (``cell.started`` ... ``cell.finished``);
4. if the pool broke, mid-cell or while idle, retire it so the next
   lease gets a fresh one and hand the cell back as ``worker_death``;
   on any other exception while the cell is leased (a raising cell, a
   failed store write), hand it back as ``worker_error``.  The queue's
   retry budget turns either into ``cell.retried{reason}`` or
   ``cell.failed{reason}``.

The worker that leased a cell is the one owner of its outcome.  The
queue and every lease holder share one process, so a lease has no
deadline: it ends when its worker reports the cell done or handed
back, or when a restart re-queues it on load.  A pool worker killed
mid-cell or while idle is reported through ``BrokenExecutor``.

Each event named above comes from the queue transition the shard
calls; the shard emits none.

A worker that finds the queue empty sleeps until new work arrives:
the shard subscribes to the :class:`~repro.service.events.EventLog`,
and every ``cell.enqueued`` or ``cell.retried`` — the only events that
put a cell in the queue — wakes the idle workers through
``call_soon_threadsafe``, since queue calls emit from executor threads.
No worker polls, so a silent shard means an empty queue.  A worker
notes the wake count before each lease and sleeps only if no wake
arrived since, so a submit that lands while a lease is in flight is
never missed, however many workers are idle.

Results go to the same :class:`~repro.experiments.store.ResultStore`
a :class:`~repro.experiments.runner.MatrixRunner` uses: one file per
cell fingerprint, so ``GET /results/{fingerprint}`` is one file read
and a cell either of them stored is served to both.
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

from .events import EventLog
from .queue import JobQueue

log = logging.getLogger("repro.service")

#: The shard's name: the prefix of its worker ids (``shard0/w0``).
SHARD_NAME = "shard0"

#: The events that put a cell in the queue: each wakes idle workers.
WAKE_EVENTS = ("cell.enqueued", "cell.retried")


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
    """N async workers over one executor."""

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        events: EventLog,
        workers: int = 1,
        executor: Executor | None = None,
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
        self._tasks: list[asyncio.Task] = []
        self._stopping = False
        #: Workers currently processing a leased cell (utilization
        #: telemetry).  Loop-thread only — no lock needed.
        self.busy = 0
        # Wake-on-submit state, loop-thread only: the count of wakes
        # so far and the event idle workers wait on (made in start(),
        # on the loop that runs the workers).
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wakes = 0
        self._work: asyncio.Event | None = None

    def executor(self) -> Executor:
        """The shard's executor (warm process pool by default)."""
        if self._executor is None:
            self._executor = warm_pool(
                self.workers, initializer=_close_inherited_inet_sockets,
            )
            self._owns_pool = True
        return self._executor

    async def start(self) -> None:
        """Spawn the worker tasks."""
        self._stopping = False
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self.events.subscribe(self._on_event)
        for i in range(self.workers):
            worker_id = f"{SHARD_NAME}/w{i}"
            self._tasks.append(
                asyncio.create_task(self._worker(worker_id))
            )

    async def stop(self) -> None:
        """Cancel every task (every stored cell is already on disk; a
        cell leased at the cancel stays leased until a load re-queues
        it)."""
        self._stopping = True
        self.events.unsubscribe(self._on_event)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        self._loop = None

    def _on_event(self, record: dict[str, Any]) -> None:
        """EventLog subscriber (any thread): new work wakes the idle
        workers, marshalled onto the loop like the API's stream wake."""
        loop = self._loop
        if (
            record["event"] in WAKE_EVENTS
            and loop is not None and not loop.is_closed()
        ):
            loop.call_soon_threadsafe(self._wake)

    def _wake(self) -> None:
        """Count a wake and release every idle worker (loop thread)."""
        self._wakes += 1
        self._work.set()

    async def _worker(self, worker_id: str) -> None:
        """One worker's lease -> serve/run -> complete loop.

        Queue calls append to the journal; they run in the default
        thread pool so the event loop never blocks on disk (simlint
        SL201 — the callable is *passed* to run_in_executor, keeping
        it out of the coroutine's call graph).  An empty lease sleeps
        until the next wake, unless one arrived while it ran.
        """
        loop = asyncio.get_running_loop()
        while not self._stopping:
            wakes = self._wakes
            cell = await loop.run_in_executor(
                None, self.queue.lease, worker_id,
            )
            if cell is None:
                if wakes == self._wakes:
                    # Clearing cannot swallow another worker's wake:
                    # set() already released every waiter, and a
                    # worker still leasing sees the count move.
                    self._work.clear()
                    await self._work.wait()
                continue
            self.busy += 1
            try:
                await self._process(worker_id, cell)
            finally:
                self.busy -= 1

    def _pool_died(self) -> None:
        """Retire a pool that broke, mid-cell or while idle.

        Retire it only when this shard created it via warm_pool, keyed
        with its own initializer, so an unrelated same-width pool
        (e.g. a bench sweep's) in this process is never torn down; an
        injected executor is the caller's to shut down.  Either way
        the next lease builds a fresh warm pool.
        """
        if self._owns_pool:
            retire_pool(
                self.workers,
                initializer=_close_inherited_inet_sockets,
            )
        elif self._executor is not None:
            log.warning(
                "injected executor for shard %s broke; replacing "
                "it with a warm pool on the next lease", SHARD_NAME,
            )
        self._executor = None
        self._owns_pool = False

    async def _process(self, worker_id: str, cell: dict[str, Any]) -> None:
        """Serve one leased cell and report its outcome to the queue.

        A cell the store holds is served from it; any other runs in
        the executor: ``cell.started``, the ``cell.run`` span, the
        simulation, the store write of its summary and the completion.

        The cell stays leased until this reports it.  A broken pool
        (its future raises, or its ``submit`` does once it broke while
        idle) is retired and the cell handed back to the queue's retry
        budget as ``worker_death``; any other exception while the cell
        is leased hands it back as ``worker_error``.  A ``cell.run``
        span still open ends with that reason.  A hand-back whose
        journal append raises is logged, and the worker leases on.
        """
        fingerprint = cell["fingerprint"]
        trace = cell.get("trace")
        loop = asyncio.get_running_loop()
        run_span = None
        try:
            stored = await loop.run_in_executor(
                None, self.store.get, fingerprint,
            )
            if stored is not None:
                if trace is not None:
                    hit_span = self.traces.span_begin(
                        trace, "cell.cache_hit",
                        parent=cell.get("lease_span"),
                        fingerprint=fingerprint,
                    )
                    self.traces.span_end(trace, hit_span)
                cached = True
                await loop.run_in_executor(
                    None, self.queue.complete, fingerprint, cached,
                )
                return
            await loop.run_in_executor(
                None, self.queue.start, fingerprint, worker_id,
            )
            if trace is not None:
                run_span = self.traces.span_begin(
                    trace, "cell.run", parent=cell.get("lease_span"),
                    fingerprint=fingerprint, worker=worker_id,
                )
            summary = await loop.run_in_executor(
                self.executor(), *self._call(cell, run_span),
            )
            # The worker's span rows ride back under summary["trace"];
            # pop them before storing so the stored summary stays
            # byte-identical to a serial run's.
            trace_doc = summary.pop("trace", None)
            doc = {
                "benchmark": cell["benchmark"],
                "technique": cell["technique"],
                "seed": cell["seed"],
                "scale": cell["scale"],
                "summary": summary,
            }
            if trace is not None:
                self.traces.span_end(trace, run_span, outcome="done")
                run_span = None
                if trace_doc:
                    self.traces.ingest(
                        trace, trace_doc["rows"], trace_doc["dropped"],
                    )
            await loop.run_in_executor(
                None, self.store.store, fingerprint, doc,
            )
            cached = False
            await loop.run_in_executor(
                None, self.queue.complete, fingerprint, cached,
            )
            return
        except BrokenExecutor:
            reason = "worker_death"
            self._pool_died()
        except Exception as exc:  # noqa: BLE001 - any fault while leased retries
            reason = "worker_error"
            log.warning("cell %s raised %r", fingerprint, exc)
        # A run span already ended, or never begun, is None: ignored.
        self.traces.span_end(trace, run_span, outcome=reason)
        try:
            await loop.run_in_executor(
                None, self.queue.fail, fingerprint, reason,
            )
        except Exception:  # noqa: BLE001 - the worker keeps leasing
            # The queue changed the cell in memory before its journal
            # append raised, and keeps the unwritten keys for the next
            # update to journal.
            log.warning("reporting cell %s lost raised", fingerprint,
                        exc_info=True)

    @staticmethod
    def _call(cell: dict[str, Any], run_span: int | None) -> tuple:
        """The executor call that runs ``cell``: the function, then its
        arguments."""
        # The trace context crosses the process-pool boundary, so it
        # is plain data only (simlint SL203) — run_cell traces its
        # coherence spans under this trace id and run span, and ships
        # the rows back inside the summary.
        trace = cell.get("trace")
        trace_ctx = (
            {"trace": trace, "span": run_span} if trace is not None else None
        )
        # The *exact* config a serial MatrixRunner would use for this
        # cell — byte-identical summaries are the service's contract.
        # ``run_cell`` is read from the module globals here, at call
        # time, so a replaced ``repro.service.workers.run_cell`` is
        # what the pool runs.
        return (run_cell, cell_config(scaled_config(), cell["technique"]),
                cell["benchmark"], cell["scale"], cell["seed"], False,
                trace_ctx)
