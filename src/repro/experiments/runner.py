"""Matrix runner: execute (benchmark × technique × seed) simulations.

Every run is reduced to a :class:`RunSummary` (a plain dict of the
numbers the figures need) and kept in the
:class:`~repro.experiments.store.ResultStore` under ``results/`` so the
per-figure harnesses can share runs: Figure 7 (performance) and
Figure 8 (address transactions) use the same matrix, Table 2 uses its
``mesti`` column, and the SLE statistics of §5.3.1 its ``sle`` column.

Cells are independent simulations (each builds its own ``System`` from
the seed), so the matrix fans out over a
:class:`~concurrent.futures.ProcessPoolExecutor` when ``workers`` is
given.  The determinism contract (docs/performance.md): a cell run in
a worker produces a summary identical — every field except the
``wall_seconds`` wall-clock measurement — to the same cell run
serially, so stored, serial, and parallel results are interchangeable.

A cell is stored under :func:`cell_fingerprint` of its complete
machine config, so summaries produced under one config are never
served under another, and runners (or service shards) sharing a
results directory see each other's cells without coordinating.
"""

from __future__ import annotations

import atexit
import dataclasses
import enum
import functools
import gc
import hashlib
import json
import logging
import math
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from pathlib import Path
from typing import Callable, Iterable

from repro.common.config import MachineConfig, scaled_config
from repro.experiments.store import ResultStore
from repro.obs.metrics import run_series
from repro.obs.progress import CellUpdate, MatrixProgress, RunManifest
from repro.obs.provenance import analyze_events
from repro.obs.spans import CELL_TRACE_ROWS
from repro.obs.tracer import TraceFilter, Tracer
from repro.system.system import RunResult, System
from repro.system.techniques import configure_technique
from repro.workloads.registry import BENCHMARKS, get_benchmark

#: Default timing-perturbation magnitude for variability runs
#: (Alameldeen–Wood): a few percent of the remote latency.
DEFAULT_JITTER = 8

#: Per-cell wall-clock budget for parallel runs.  The in-simulation
#: ``max_cycles``/``max_events`` guards catch livelock deterministically;
#: this outer limit only catches a wedged worker process.
DEFAULT_CELL_TIMEOUT = 3600.0

#: Target dispatch chunks per worker.  Cells are submitted to the pool
#: in contiguous chunks rather than one task per cell: large matrices
#: pay per-task pickling/IPC once per chunk, while keeping several
#: chunks per worker preserves load balance when cell times vary.
DISPATCH_CHUNKS_PER_WORKER = 4

#: Summary fields that measure the host, not the simulation — excluded
#: from determinism comparisons.  ``worker`` (the producing pid) and
#: ``retries`` are provenance, recorded so a retried cell's inflated
#: ``wall_seconds`` is explainable from the cache alone.
NONDETERMINISTIC_FIELDS = ("wall_seconds", "worker", "retries")

RunSummary = dict

log = logging.getLogger("repro.runner")


@functools.lru_cache(maxsize=None)
def _summary_rows(n_procs: int) -> tuple[tuple[str, str], ...]:
    """``(summary field, stats key)`` per table series that feeds the
    summary on an ``n_procs``-node machine, in table order."""
    return tuple(
        (field, key)
        for _spec, _labels, key, field in run_series(n_procs)
        if field is not None
    )


def summarize(result: RunResult, wall_seconds: float = 0.0) -> RunSummary:
    """Reduce a :class:`RunResult` to the numbers the figures report.

    Every count is the sum of the stats keys that the
    :data:`~repro.obs.metrics.RUN_METRICS` rows naming its field read,
    in table order; a counter nothing touched reads as int ``0``.
    """
    stats = result.stats
    summary: RunSummary = {
        "cycles": result.cycles,
        "committed": result.committed,
        "ipc": result.ipc,
        "wall_seconds": round(wall_seconds, 3),
    }
    for field, key in _summary_rows(result.config.n_procs):
        summary[field] = summary.get(field, 0) + stats.get(key)
    # Histogram-derived distribution fields.
    miss_lat = stats.merged_histogram("miss_latency")
    summary["miss_latency_p50"] = miss_lat.p50
    summary["miss_latency_p95"] = miss_lat.p95
    summary["miss_latency_p99"] = miss_lat.p99
    summary["miss_latency_mean"] = miss_lat.mean
    queue = stats.merged_histogram("queue_depth")
    summary["bus_queue_depth_p50"] = queue.p50
    summary["bus_queue_depth_p95"] = queue.p95
    reuse = stats.merged_histogram("validate_reuse_distance")
    summary["validate_reuse_p50"] = reuse.p50
    summary["validate_reuse_count"] = reuse.count
    return summary


def summaries_equal(a: RunSummary, b: RunSummary) -> bool:
    """Dict equality modulo the host-dependent wall-clock fields."""
    strip = lambda s: {k: v for k, v in s.items() if k not in NONDETERMINISTIC_FIELDS}
    return strip(a) == strip(b)


def config_fingerprint(config: MachineConfig) -> str:
    """Stable hash of every :class:`MachineConfig` field.

    Two configs whose fingerprints match produce interchangeable
    summaries for the same (benchmark, scale, seed) cell.  The payload
    also carries ``"jitter": DEFAULT_JITTER``, a constant kept so that
    fingerprints recorded earlier (``BENCH_matrix.json``'s) stay valid.
    """

    def encode(value):
        if dataclasses.is_dataclass(value):
            return {
                f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
        if isinstance(value, enum.Enum):
            return value.value
        return value

    payload = json.dumps(
        {"config": encode(config), "jitter": DEFAULT_JITTER}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: ``config_fingerprint(scaled_config())``: the machine of every runner
#: built without a config, hashed once per process rather than once per
#: runner (a cache-served request builds a fresh runner).
DEFAULT_FINGERPRINT = config_fingerprint(scaled_config())


def cell_config(base: MachineConfig, technique: str) -> MachineConfig:
    """The complete per-cell machine config for one technique on ``base``."""
    config = configure_technique(base, technique)
    return dataclasses.replace(config, latency_jitter=DEFAULT_JITTER)


def cell_fingerprint(
    config: MachineConfig, benchmark: str, scale: float, seed: int,
) -> str:
    """Stable identity of one fully-configured simulation cell.

    Hashes the complete per-cell machine config (:func:`cell_config`:
    the technique is part of the config, not a separate coordinate)
    together with the workload coordinates (``scale`` as a float, so
    ``1`` and ``1.0`` name one cell).  Two requests with equal
    cell fingerprints are the *same simulation*: the result store and
    the service's in-flight dedupe key on this, so a million identical
    submissions cost one run.
    """
    payload = f"{config_fingerprint(config)}|{benchmark}|{float(scale)}|{seed}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_cell(
    config: MachineConfig,
    benchmark: str,
    scale: float,
    seed: int,
    provenance: bool = False,
    trace: dict | None = None,
) -> RunSummary:
    """Run one fully-configured cell and summarize it.

    Module-level so a :class:`ProcessPoolExecutor` can pickle it; the
    serial path uses the same function, which is what makes the
    serial-vs-worker determinism contract enforceable by test.

    ``provenance`` traces the run in memory and attaches the miss-
    provenance cell summary (attribution classes, validate fate, span
    health) under ``summary["provenance"]``.  Spans add no scheduler
    events, so every other summary field is identical to an untraced
    run — cached and traced results stay comparable.

    ``trace`` is the service's distributed-trace context — a plain
    ``{"trace": id, "span": cell_run_span}`` dict (plain data only: it
    crosses the process-pool boundary).  When set, the run is traced
    spans-only under that context (see :class:`~repro.obs.tracer.Tracer`)
    and the tracer's span-event rows come back under
    ``summary["trace"]`` as ``{"rows", "dropped"}``: the newest
    :data:`~repro.obs.spans.CELL_TRACE_ROWS` rows, and how many rows the
    tracer's ring overwrote.  The worker shard pops that key before
    storing, so stored summaries stay byte-identical to serial runs.
    """
    workload = get_benchmark(benchmark, scale=scale)
    start = time.perf_counter()
    if provenance:
        tracer = Tracer()
    elif trace is not None:
        # Spans only: the full point-event firehose is provenance's
        # business; trace propagation needs just the causal tree.
        tracer = Tracer(
            filter=TraceFilter(kinds=("span",)), ring=CELL_TRACE_ROWS,
            context=trace,
        )
    else:
        tracer = None
    # The simulator allocates heavily but creates almost no cyclic
    # garbage a run needs collected mid-flight; cyclic-GC passes over
    # the live System graph only add wall time that *grows* with the
    # process's object count, making successive cells mysteriously
    # slower.  Pausing collection for the duration of one cell keeps
    # per-cell wall time flat (results are untouched — GC timing is
    # invisible to the simulation).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        result = System(config, workload, seed=seed, tracer=tracer).run(
            max_cycles=500_000_000, max_events=300_000_000
        )
    finally:
        if gc_was_enabled:
            gc.enable()
    summary = summarize(result, time.perf_counter() - start)
    if provenance:
        summary["provenance"] = analyze_events(tracer.events).cell_summary()
    elif trace is not None:
        summary["trace"] = {"rows": tracer.rows(), "dropped": tracer.overwritten}
    # Provenance over the result pipe: which process produced this
    # summary.  Host-dependent, hence in NONDETERMINISTIC_FIELDS.
    summary["worker"] = os.getpid()
    summary["retries"] = 0
    return summary


def run_cell_chunk(
    jobs: list[tuple],
) -> list[RunSummary]:
    """Run a contiguous chunk of cells in one worker task.

    Chunked dispatch amortizes the per-task submission cost (pickling
    the :class:`MachineConfig`, executor queue round-trips) over
    several cells; the summaries come back in job order.
    """
    return [run_cell(*job) for job in jobs]


#: Warm persistent worker pools, keyed by (worker count, initializer).
#: Creating a :class:`ProcessPoolExecutor` per sweep pays process
#: startup every time; reusing one across sweeps (the bench's pooled
#: pass, a service shard's whole lifetime) amortizes it to zero.
#: Keying on the initializer keeps differently-initialized pools of
#: the same width apart: a shard pool whose workers dropped inherited
#: TCP fds must never be handed to — or retired by — a plain sweep.
_WARM_POOLS: dict[tuple[int, Callable | None], ProcessPoolExecutor] = {}


def _shutdown_warm_pools() -> None:
    """Best-effort atexit teardown of every warm pool."""
    for pool in _WARM_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _WARM_POOLS.clear()


def warm_pool(workers: int, initializer=None) -> ProcessPoolExecutor:
    """The shared persistent pool with ``workers`` processes.

    Created on first use and reused for every later sweep that wants
    the same width *and* the same ``initializer``; registered for
    atexit shutdown.  A pool that broke (worker crash) should be
    discarded with :func:`retire_pool` so the next call builds a
    fresh one.

    ``initializer`` runs once in each worker process and is part of
    the pool key, so a caller that needs initialized workers (the
    service shard dropping fork-inherited TCP fds — see
    ``repro.service.workers._close_inherited_inet_sockets``) never
    silently receives a same-width pool created without it.
    """
    key = (workers, initializer)
    pool = _WARM_POOLS.get(key)
    if pool is None:
        if not _WARM_POOLS:
            atexit.register(_shutdown_warm_pools)
        pool = ProcessPoolExecutor(max_workers=workers, initializer=initializer)
        _WARM_POOLS[key] = pool
    return pool


def retire_pool(workers: int, initializer=None) -> None:
    """Discard (and shut down) one warm pool.

    Keyed like :func:`warm_pool`: only the pool with this exact
    (``workers``, ``initializer``) pair is torn down, so a component
    retiring its own broken pool can never shut down an unrelated
    same-width pool owned by another component in the same process.
    """
    pool = _WARM_POOLS.pop((workers, initializer), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def effective_workers(workers: int | None, n_jobs: int) -> int:
    """Right-size a requested worker count to what can actually help.

    Worker processes beyond the job count idle, and worker processes
    beyond the machine's cores *cost* wall time (context switching and
    pool startup with zero added parallelism — the classic way a
    parallel run loses to a serial one on small boxes).  The result is
    ``min(workers, n_jobs, cpu_count)``; callers treat ``<= 1`` as
    "run serially in-process".
    """
    if not workers or workers <= 1:
        return 1
    return max(1, min(workers, n_jobs, os.cpu_count() or 1))


def _pool_map(
    jobs: list[tuple[MachineConfig, str, float, int]],
    workers: int,
    timeout: float | None,
    keys: list[str] | None = None,
    on_event: Callable[[CellUpdate], None] | None = None,
    chunksize: int | None = None,
):
    """Yield each job's summary in submission order from a process pool.

    Each cell gets a per-cell ``timeout`` and exactly one retry — in a
    fresh worker, or in-process if the pool died (worker crash); the
    cell itself may still be fine.  Yielding incrementally lets the
    caller persist finished cells before a later one fails.

    ``on_event`` receives a :class:`CellUpdate` per telemetry event:
    ``start`` at submission (the cell is queued or running), ``retry``/
    ``timeout`` on a failed first attempt, ``finish`` once the summary
    is harvested (carrying worker pid, wall time, and retry count).

    Dispatch is *chunked over a warm pool*: jobs are submitted in
    contiguous chunks (:func:`run_cell_chunk`,
    :data:`DISPATCH_CHUNKS_PER_WORKER` chunks per worker) to a shared
    persistent :func:`warm_pool`, so neither process startup nor
    per-cell task overhead is paid per sweep.  A failed chunk falls
    back to retrying its cells one at a time, preserving the per-cell
    one-retry contract; ``chunksize`` overrides the heuristic.

    Chunking coarsens the *first attempt's* timeout to ``timeout``
    times the chunk length (a cell inside a running chunk task cannot
    be interrupted individually); the individual retries are each
    bounded by the per-cell ``timeout`` again, and they run in a
    fresh dedicated pool so a wedged first attempt — which keeps
    occupying its warm-pool worker — cannot starve them.  After a
    sweep that saw any chunk time out, the warm pool is retired so
    the hung worker does not shrink later sweeps' effective width.
    """
    if keys is None:
        keys = [f"{job[1]}|scale{job[2]}|seed{job[3]}" for job in jobs]
    width = min(workers, len(jobs))
    if chunksize is None:
        chunksize = max(
            1, math.ceil(len(jobs) / (width * DISPATCH_CHUNKS_PER_WORKER))
        )
    pool = warm_pool(width)
    chunks = [
        (jobs[i:i + chunksize], keys[i:i + chunksize])
        for i in range(0, len(jobs), chunksize)
    ]
    futures = []
    for chunk_jobs, chunk_keys in chunks:
        futures.append(pool.submit(run_cell_chunk, chunk_jobs))
        if on_event is not None:
            for key in chunk_keys:
                on_event(CellUpdate("start", key))
    timed_out = False
    try:
        for future, (chunk_jobs, chunk_keys) in zip(futures, chunks):
            chunk_timeout = timeout * len(chunk_jobs) if timeout else timeout
            try:
                summaries = future.result(timeout=chunk_timeout)
            except Exception as exc:  # noqa: BLE001 - each cell gets one retry
                if isinstance(exc, (TimeoutError, FuturesTimeoutError)):
                    timed_out = True
                summaries = _retry_chunk(
                    pool, width, chunk_jobs, chunk_keys, exc, timeout, on_event
                )
            for key, summary in zip(chunk_keys, summaries):
                if on_event is not None:
                    on_event(CellUpdate(
                        "finish", key,
                        worker=summary.get("worker"),
                        wall_seconds=summary.get("wall_seconds"),
                        retries=int(summary.get("retries", 0)),
                    ))
                yield summary
    finally:
        if timed_out:
            # A timed-out chunk's first attempt may still be wedged in
            # a pool worker (a running pool task cannot be killed);
            # retiring the pool keeps the hung process from occupying
            # a slot in every later sweep of this width.
            retire_pool(width)


def _retry_chunk(
    pool: ProcessPoolExecutor,
    width: int,
    chunk_jobs: list[tuple],
    chunk_keys: list[str],
    exc: Exception,
    timeout: float | None,
    on_event: Callable[[CellUpdate], None] | None,
) -> list[RunSummary]:
    """Re-run a failed chunk's cells one at a time (one retry each).

    A chunk failure does not say which cell was at fault, so every
    cell in the chunk is retried individually, each under the
    per-cell ``timeout`` — in the pool when it is still alive, in a
    fresh dedicated pool when the chunk *timed out* (the wedged first
    attempt still occupies a warm-pool worker, so a healthy cell's
    retry queued behind it would time out too), or in-process when
    the executor broke (worker death took the pool down; the warm
    pool is retired so the next sweep gets a fresh one).  A cell
    whose individual retry also fails propagates, matching the
    serial path.
    """
    kind = (
        "timeout"
        if isinstance(exc, (TimeoutError, FuturesTimeoutError))
        else "retry"
    )
    retry_pool = pool
    if kind == "timeout":
        retry_pool = ProcessPoolExecutor(
            max_workers=min(width, len(chunk_jobs))
        )
    summaries = []
    try:
        for job, key in zip(chunk_jobs, chunk_keys):
            if on_event is not None:
                on_event(CellUpdate(
                    kind, key, error=f"{type(exc).__name__}: {exc}",
                ))
            log.warning(
                "chunk containing cell %s failed (%s: %s); retrying the cell",
                key, type(exc).__name__, exc,
            )
            try:
                summary = retry_pool.submit(
                    run_cell, *job
                ).result(timeout=timeout)
            except BrokenExecutor:
                if retry_pool is pool:
                    retire_pool(width)
                summary = run_cell(*job)
            summary["retries"] = summary.get("retries", 0) + 1
            summaries.append(summary)
    finally:
        if retry_pool is not pool:
            retry_pool.shutdown(wait=False, cancel_futures=True)
    return summaries


def map_cells(
    jobs: list[tuple[MachineConfig, str, float, int]],
    workers: int | None = None,
    timeout: float | None = DEFAULT_CELL_TIMEOUT,
) -> list[RunSummary]:
    """Run ``(config, benchmark, scale, seed)`` jobs, preserving order.

    With ``workers`` > 1 the jobs fan out over a process pool with a
    per-cell timeout and one retry; otherwise they run serially.  The
    requested width is right-sized by :func:`effective_workers` first —
    a pool that cannot beat the serial path (more workers than cores
    or than jobs) degrades to in-process execution instead of paying
    dispatch overhead for nothing.  The returned list matches ``jobs``
    index for index either way, with identical summaries (modulo
    ``wall_seconds``) — simulations are pure functions of
    (config, benchmark, scale, seed).
    """
    effective = effective_workers(workers, len(jobs))
    if effective <= 1:
        return [run_cell(*job) for job in jobs]
    return list(_pool_map(jobs, effective, timeout))


class MatrixRunner:
    """Runs the benchmark × technique × seed matrix through the result store."""

    def __init__(
        self,
        config: MachineConfig | None = None,
        scale: float = 1.0,
        results_dir: str | Path = "results",
        verbose: bool = True,
        workers: int | None = None,
        cell_timeout: float | None = DEFAULT_CELL_TIMEOUT,
        provenance: bool = False,
    ):
        self.base_config = config or scaled_config()
        self.fingerprint = (
            DEFAULT_FINGERPRINT if config is None
            else config_fingerprint(config)
        )
        self.scale = scale
        self.results_dir = Path(results_dir)
        self.store = ResultStore(self.results_dir)
        self.verbose = verbose
        self.workers = workers
        self.cell_timeout = cell_timeout
        # Trace every executed cell and attach its miss-provenance
        # summary (stored cells keep whatever they were stored with).
        self.provenance = provenance
        self.manifest_path = self.results_dir / f"matrix_scale{scale}.manifest.json"
        self.manifest: RunManifest | None = None  # last run_matrix sweep
        #: Summaries this runner has read from or written to the store.
        self._cells: dict[str, RunSummary] = {}

    @staticmethod
    def key(benchmark: str, technique: str, seed: int) -> str:
        """Matrix key for one (benchmark, technique, seed) cell."""
        return f"{benchmark}|{technique}|{seed}"

    def cell_config(self, technique: str) -> MachineConfig:
        """The complete per-cell machine config for one technique."""
        return cell_config(self.base_config, technique)

    def _fingerprint(self, benchmark: str, technique: str, seed: int) -> str:
        """The store key of one cell of this runner's matrix."""
        return cell_fingerprint(
            self.cell_config(technique), benchmark, self.scale, seed,
        )

    def _lookup(
        self, benchmark: str, technique: str, seed: int
    ) -> RunSummary | None:
        """The cell's summary, from this runner or the store, or None."""
        key = self.key(benchmark, technique, seed)
        if key not in self._cells:
            doc = self.store.get(self._fingerprint(benchmark, technique, seed))
            if doc is None or "summary" not in doc:
                return None
            self._cells[key] = doc["summary"]
        return self._cells[key]

    def run_one(
        self, benchmark: str, technique: str, seed: int, force: bool = False
    ) -> RunSummary:
        """Run (or fetch from the store) one cell of the matrix."""
        if not force:
            summary = self._lookup(benchmark, technique, seed)
            if summary is not None:
                return summary
        summary = run_cell(
            self.cell_config(technique), benchmark, self.scale, seed,
            self.provenance,
        )
        self.flush(benchmark, technique, seed, summary)
        return summary

    def flush(
        self, benchmark: str, technique: str, seed: int, summary: RunSummary
    ) -> None:
        """Write one finished cell to the store — the runner's only write.

        The cell is written as soon as it finishes, so a sweep that
        fails later keeps every cell it completed.
        """
        self.store.store(self._fingerprint(benchmark, technique, seed), {
            "benchmark": benchmark,
            "technique": technique,
            "seed": seed,
            "scale": self.scale,
            "summary": summary,
        })
        self._cells[self.key(benchmark, technique, seed)] = summary
        log.log(
            logging.INFO if self.verbose else logging.DEBUG,
            "ran %9s / %-15s seed=%d cycles=%9.0f ipc=%.2f (%.1fs)",
            benchmark, technique, seed,
            summary["cycles"], summary["ipc"], summary["wall_seconds"],
        )

    def run_matrix(
        self,
        benchmarks: Iterable[str] | None = None,
        techniques: Iterable[str] = ("base",),
        seeds: Iterable[int] = (1, 2, 3),
        workers: int | None = None,
    ) -> dict[str, RunSummary]:
        """Run every requested cell; returns the key->summary mapping.

        ``workers`` (default: the runner's ``workers`` setting) > 1
        fans the cells not yet stored out over a process pool; the
        returned mapping is in the serial iteration order either way,
        and every summary is identical to what the serial path would
        produce (modulo the ``NONDETERMINISTIC_FIELDS`` provenance —
        see docs/performance.md).

        Every sweep records a :class:`RunManifest` in ``self.manifest``:
        per cell, stored-vs-ran status (``cached``/``ran``), the
        producing worker pid, the retry count, and the wall time.  A
        sweep that ran at least one cell also writes it to
        ``matrix_scale<scale>.manifest.json`` in the results directory;
        a sweep served wholly from the store leaves that file alone.
        """
        cells = [
            (benchmark, technique, seed)
            for benchmark in (benchmarks or BENCHMARKS)
            for technique in techniques
            for seed in seeds
        ]
        workers = self.workers if workers is None else workers
        stored = {
            self.key(*cell) for cell in cells
            if self._lookup(*cell) is not None
        }
        if workers and workers > 1:
            self._run_cells_parallel(
                [cell for cell in cells if self.key(*cell) not in stored],
                workers,
            )
        out = {self.key(*cell): self.run_one(*cell) for cell in cells}
        self.manifest = self._build_manifest(out, stored, workers)
        if self.manifest.ran:
            self._save_manifest(self.manifest)
        return out

    def _build_manifest(
        self,
        out: dict[str, RunSummary],
        stored: set[str],
        workers: int | None,
    ) -> RunManifest:
        """Per-cell provenance for one finished sweep."""
        manifest = RunManifest(
            label="matrix", scale=self.scale,
            fingerprint=self.fingerprint, workers=workers,
        )
        for key, summary in out.items():
            manifest.record(
                key,
                status="cached" if key in stored else "ran",
                worker=summary.get("worker"),
                retries=int(summary.get("retries", 0)),
                wall_seconds=summary.get("wall_seconds"),
                provenance=summary.get("provenance"),
            )
        return manifest

    def _save_manifest(self, manifest: RunManifest) -> None:
        """Persist the sweep manifest in the results directory."""
        try:
            self.results_dir.mkdir(parents=True, exist_ok=True)
            manifest.save(self.manifest_path)
        except OSError as exc:  # manifest is telemetry, never fatal
            log.warning("could not write manifest %s: %s", self.manifest_path, exc)

    def _run_cells_parallel(
        self, pending: list[tuple[str, str, int]], workers: int
    ) -> None:
        """Fan cells out over a process pool into the store.

        Each cell is stored as it is harvested, so cells completed
        before a crash/timeout-exhaustion stay stored — a re-run only
        re-executes what's missing.
        """
        pending = list(dict.fromkeys(pending))
        if not pending:
            return
        workers = effective_workers(workers, len(pending))
        if workers <= 1:
            # A pool cannot win here (single core, or a single cell);
            # fall through to the serial path in run_matrix instead of
            # paying dispatch overhead for zero parallelism.
            log.log(
                logging.INFO if self.verbose else logging.DEBUG,
                "right-sized worker pool to serial for %d cell(s) "
                "(cpu_count=%s)", len(pending), os.cpu_count(),
            )
            return
        jobs = [
            (self.cell_config(technique), benchmark, self.scale, seed,
             self.provenance)
            for benchmark, technique, seed in pending
        ]
        log.log(
            logging.INFO if self.verbose else logging.DEBUG,
            "fanning %d cell(s) out over %d warm workers",
            len(pending), workers,
        )
        progress = MatrixProgress(total=len(pending), label="matrix")
        try:
            summaries = _pool_map(
                jobs, workers, self.cell_timeout,
                keys=[self.key(*cell) for cell in pending],
                on_event=progress.update,
            )
            for (benchmark, technique, seed), summary in zip(pending, summaries):
                self.flush(benchmark, technique, seed, summary)
        finally:
            progress.close()

    def cells(self, benchmark: str, technique: str, seeds: Iterable[int]) -> list[RunSummary]:
        """Fetch (running if needed) all seeds of one cell."""
        return [self.run_one(benchmark, technique, s) for s in seeds]
