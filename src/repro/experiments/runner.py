"""Matrix runner: execute (benchmark × technique × seed) simulations.

Every run is reduced to a :class:`RunSummary` (a plain dict of the
numbers the figures need) and kept in the
:class:`~repro.experiments.store.ResultStore` under ``results/`` so the
per-figure harnesses can share runs: Figure 7 (performance) and
Figure 8 (address transactions) use the same matrix, Table 2 uses its
``mesti`` column, and the SLE statistics of §5.3.1 its ``sle`` column.

Cells are independent simulations (each builds its own ``System`` from
the seed), and every sweep runs them through :func:`map_cells`:
in-process, or one task per cell in a warm process pool when
``workers`` > 1.  The determinism contract (docs/performance.md): a
cell run in a worker produces a summary identical — every field except
the :data:`NONDETERMINISTIC_FIELDS` host measurements — to the same
cell run serially, so stored, serial, and pooled results are
interchangeable.

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
import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.common.config import MachineConfig, scaled_config
from repro.experiments.store import ResultStore
from repro.obs.metrics import run_series
from repro.obs.progress import RunManifest
from repro.obs.spans import CELL_TRACE_ROWS
from repro.obs.tracer import TraceFilter, Tracer
from repro.system.system import RunResult, System
from repro.system.techniques import configure_technique
from repro.workloads.registry import BENCHMARKS, get_benchmark

#: Default timing-perturbation magnitude for variability runs
#: (Alameldeen–Wood): a few percent of the remote latency.
DEFAULT_JITTER = 8

#: Seconds :func:`map_cells` waits for one pooled cell.  The
#: in-simulation ``max_cycles``/``max_events`` guards catch livelock
#: deterministically; this outer limit only catches a wedged worker.
CELL_TIMEOUT = 3600.0

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
    trace: dict | None = None,
) -> RunSummary:
    """Run one fully-configured cell and summarize it.

    Module-level so a :class:`ProcessPoolExecutor` can pickle it; the
    serial path uses the same function, which is what makes the
    serial-vs-worker determinism contract enforceable by test.

    ``trace`` is the service's distributed-trace context — a plain
    ``{"trace": id, "span": cell_run_span}`` dict (plain data only: it
    crosses the process-pool boundary).  When set, the run is traced
    spans-only under that context (see :class:`~repro.obs.tracer.Tracer`)
    and the tracer's span-event rows come back under
    ``summary["trace"]`` as ``{"rows", "dropped"}``: the newest
    :data:`~repro.obs.spans.CELL_TRACE_ROWS` rows, and how many rows the
    tracer's ring overwrote.  The worker shard pops that key before
    storing, so stored summaries stay byte-identical to serial runs.
    A cell's miss provenance is ``repro-sim explain``'s business.
    """
    workload = get_benchmark(benchmark, scale=scale)
    start = time.perf_counter()
    tracer = None
    if trace is not None:
        # Spans only: trace propagation needs just the causal tree.
        tracer = Tracer(
            filter=TraceFilter(kinds=("span",)), ring=CELL_TRACE_ROWS,
            context=trace,
        )
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
        result = System(config, workload, seed=seed, tracer=tracer).run()
    finally:
        if gc_was_enabled:
            gc.enable()
    summary = summarize(result, time.perf_counter() - start)
    if trace is not None:
        summary["trace"] = {"rows": tracer.rows(), "dropped": tracer.overwritten}
    # Provenance over the result pipe: which process produced this
    # summary.  Host-dependent, hence in NONDETERMINISTIC_FIELDS.
    summary["worker"] = os.getpid()
    summary["retries"] = 0
    return summary


#: Seconds between a pool worker's checks that the process that forked
#: it is still its parent (:func:`exit_with_parent`).
ORPHAN_CHECK = 0.5


def exit_with_parent(initializer: Callable | None = None) -> None:
    """Pool-worker initializer: start a watch that ends this worker once
    the process that forked it dies, then run ``initializer``.

    A forked pool worker holds the write ends of its own pool's pipes,
    so its parent's death closes nothing it waits on: an idle worker
    blocks reading the call queue and a busy one blocks writing its
    result, both for good.  A daemon thread instead checks
    ``os.getppid()`` every :data:`ORPHAN_CHECK` seconds and ends the
    worker with ``os._exit`` once the worker has been re-parented.
    Every process pool ``src/`` creates starts its workers with it.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(ORPHAN_CHECK)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()
    if initializer is not None:
        initializer()


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
    silently receives a same-width pool created without it.  Each
    worker runs it after :func:`exit_with_parent` has started its
    watch, so no worker outlives this process.
    """
    key = (workers, initializer)
    pool = _WARM_POOLS.get(key)
    if pool is None:
        if not _WARM_POOLS:
            atexit.register(_shutdown_warm_pools)
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=exit_with_parent,
            initargs=(initializer,),
        )
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


def map_cells(
    jobs: list[tuple],
    workers: int | None = None,
) -> Iterator[RunSummary]:
    """Yield the summary of each :func:`run_cell` job, in job order.

    With ``workers`` <= 1 each job runs in-process when its summary is
    asked for.  Otherwise every job is one task in the
    :func:`warm_pool` of ``min(workers, len(jobs))`` processes, and
    each summary is yielded as soon as it and every earlier one are in,
    so the caller can store finished cells before a later one fails.
    A cell that raises, takes longer than :data:`CELL_TIMEOUT` or
    loses its pool reruns once in-process, marked ``retries: 1``; a
    second failure propagates.  After a sweep that saw a timeout or a
    broken pool, the pool is retired: a timed-out task may still hold
    a worker, and a broken pool takes no more tasks.  A pool that broke
    while idle refuses the sweep's tasks; it is retired and the tasks
    go to a fresh one.  An empty job list starts no pool.  Summaries
    are identical either way outside :data:`NONDETERMINISTIC_FIELDS`.
    """
    if not workers or workers <= 1:
        for job in jobs:
            yield run_cell(*job)
        return
    if not jobs:
        return
    width = min(workers, len(jobs))
    try:
        futures = [warm_pool(width).submit(run_cell, *job) for job in jobs]
    except BrokenExecutor:
        retire_pool(width)
        futures = [warm_pool(width).submit(run_cell, *job) for job in jobs]
    spoiled = False
    try:
        for job, future in zip(jobs, futures):
            try:
                summary = future.result(timeout=CELL_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - each cell gets one retry
                spoiled |= isinstance(
                    exc, (BrokenExecutor, TimeoutError, FuturesTimeoutError)
                )
                config, benchmark, scale, seed = job[:4]
                log.warning(
                    "cell %s|scale%s|seed%s (%s) failed in the pool (%r); "
                    "rerunning it in-process",
                    benchmark, scale, seed,
                    cell_fingerprint(config, benchmark, scale, seed), exc,
                )
                summary = run_cell(*job)
                summary["retries"] = 1
            yield summary
    finally:
        for future in futures:
            future.cancel()
        if spoiled:
            retire_pool(width)


class MatrixRunner:
    """Runs the benchmark × technique × seed matrix through the result store."""

    def __init__(
        self,
        config: MachineConfig | None = None,
        scale: float = 1.0,
        results_dir: str | Path = "results",
        verbose: bool = True,
        workers: int | None = None,
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

    def run_one(self, benchmark: str, technique: str, seed: int) -> RunSummary:
        """Run (or fetch from the store) one cell of the matrix."""
        summary = self._lookup(benchmark, technique, seed)
        if summary is not None:
            return summary
        summary = run_cell(self.cell_config(technique), benchmark, self.scale, seed)
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
    ) -> dict[str, RunSummary]:
        """Run every requested cell; returns the key->summary mapping.

        The cells not yet stored run through :func:`map_cells` on the
        runner's ``workers`` and are stored one by one as they arrive,
        so an interrupted sweep keeps every cell it finished.  The
        returned mapping is in the serial iteration order, and every
        summary is identical to what the serial path would produce
        (modulo the ``NONDETERMINISTIC_FIELDS`` provenance — see
        docs/performance.md).

        Every sweep records a :class:`RunManifest` in ``self.manifest``:
        per cell, whether the store served it (``cached``) or it ran
        (``ran``).  The cell's worker pid, retries and wall time are
        fields of its summary, so the stored ``<fingerprint>.json`` is
        the cell's one record.
        """
        cells = [
            (benchmark, technique, seed)
            for benchmark in (benchmarks or BENCHMARKS)
            for technique in techniques
            for seed in seeds
        ]
        stored = {
            self.key(*cell) for cell in cells
            if self._lookup(*cell) is not None
        }
        pending = list(dict.fromkeys(
            cell for cell in cells if self.key(*cell) not in stored
        ))
        jobs = [
            (self.cell_config(technique), benchmark, self.scale, seed)
            for benchmark, technique, seed in pending
        ]
        for cell, summary in zip(pending, map_cells(jobs, self.workers)):
            self.flush(*cell, summary)
        out = {self.key(*cell): self._cells[self.key(*cell)] for cell in cells}
        self.manifest = self._build_manifest(out, stored)
        return out

    @staticmethod
    def _build_manifest(
        out: dict[str, RunSummary], stored: set[str],
    ) -> RunManifest:
        """Which cells of one finished sweep the store served."""
        manifest = RunManifest()
        for key in out:
            manifest.record(key, "cached" if key in stored else "ran")
        return manifest

    def cells(self, benchmark: str, technique: str, seeds: Iterable[int]) -> list[RunSummary]:
        """Fetch (running if needed) all seeds of one cell."""
        return [self.run_one(benchmark, technique, s) for s in seeds]
