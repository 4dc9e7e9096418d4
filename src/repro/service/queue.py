"""Durable on-disk job queue for the simulation service.

A *job* is one submitted experiment spec; the queue explodes it into
(benchmark × technique × seed) *cells*, each identified by its
:func:`~repro.experiments.runner.cell_fingerprint` — the stable hash
of the fully-configured simulation.  A ``{"kind": "fuzz"}`` spec
instead explodes into one fuzz-campaign cell per seed
(:func:`fuzz_cell_identity`); both kinds share every queue mechanism
below.  Cells, not jobs, are the unit of scheduling:

* **dedupe** — a submission whose cell fingerprint matches a live
  (queued or leased) cell joins that cell instead of enqueuing a
  duplicate (``cell.deduped``); a million identical submissions cost
  one simulation.  Finished cells leave the live set — later
  identical submissions re-enqueue and are then served from the
  result store without simulation (``cell.cache_hit``).
* **priorities** — higher job priority leases first; FIFO within a
  priority.
* **leases** — a worker leases a cell and is the one owner of its
  outcome: it reports the cell done (:meth:`JobQueue.complete`) or
  lost (:meth:`JobQueue.fail`).  The workers run in the queue's own
  process, so a lease has no deadline; a lost cell re-enqueues
  exactly once per retry budget (``cell.retried{reason}``) before it
  fails for good (``cell.failed{reason}``).
* **cancellation** — cancelling a job drops its not-yet-leased cells
  (unless another job shares them) and completes the job with
  ``reason=cancelled``; an in-flight leased cell is left to finish so
  its result still lands in the store.

Durability: the state is a snapshot, ``state.json``, plus an
append-only journal, ``journal.jsonl``, beside it.  Every update a
restart reads (a submit, a completion, a retry or failure, a cancel)
appends one JSON line: ``seq`` and the whole records of only the jobs
and cells that update touched, ``null`` for a deleted one.  Load
replays the lines over the snapshot.  A torn last line (a crash in
mid-append) is dropped and the file cut back to its whole lines.  Once
the journal outgrows :data:`COMPACT_RATIO` times the snapshot, the
snapshot is rewritten atomically
(:func:`~repro.experiments.store.atomic_write`) and the journal
emptied; a crash between the two replays the old journal over the new
snapshot, which gives the same state because every line carries whole
records.  On load, cells found *leased* are returned to *queued* — the
lease holder died with the process, and a re-run of a deterministic
cell is always safe — so a lease or a start, which a restart would
undo, appends nothing.  Load also clears the span ids the records
hold, which name spans of the old process's trace store.  The queue
directory has one owner, so load also deletes the temp files a crash
in mid-compaction left behind.

Events: the queue emits every lifecycle event, under its lock, into
the views its records name: a job event joins its job's view, a cell
event those of the jobs still waiting on the cell.  So a view ends at
its job's ``job.completed``, and a restart changes no routing.

Retention: the queue keeps the records and event views of only the
newest :data:`RETAIN_TERMINAL` terminal jobs.  An older job's id reads
as expired (:class:`JobNotFound`); its results stay in the result
store.

Thread-safety: the service offloads queue calls to executor threads
(the journal append must not block the event loop — simlint SL201),
so every public method serializes on one reentrant lock and
``jobs``/``cells``/``_seq`` must only be touched with it held
(simlint SL202 enforces this statically).  Async callers read state
through locked accessors such as :meth:`status`.

All timestamps come from the injected ``clock`` (default
:func:`time.perf_counter`) and ids from a persisted sequence counter,
keeping the service inside the repo's determinism lint (SL001): no
wall clocks, no randomness.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.coherence.protocol import DEFAULT_PROTOCOLS, PROTOCOLS
from repro.common.config import scaled_config
from repro.common.errors import ConfigError
from repro.experiments.runner import cell_config, cell_fingerprint
from repro.experiments.store import atomic_write
from repro.obs.jobtrace import JobTraceStore
from repro.obs.metrics import MetricsRegistry
from repro.system.techniques import ALL_TECHNIQUES
from repro.workloads.registry import BENCHMARKS, EXTRA_BENCHMARKS

from .events import EventLog

#: Client-supplied trace ids: short, grep/filename-safe tokens.
TRACE_ID = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")

#: Lease-latency histogram bounds, seconds (queued -> leased wait).
LEASE_LATENCY_BOUNDS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 30.0)

#: How many times a cell is re-enqueued after lease loss before it
#: fails for good ("exactly once" is the tested contract).
MAX_RETRIES = 1

#: Terminal job states.
JOB_TERMINAL = ("done", "failed", "cancelled")

#: Terminal jobs whose records and event views are kept; older expire.
RETAIN_TERMINAL = 256

#: Compaction folds the journal into a fresh snapshot once the journal
#: outgrows this many times the snapshot (and :data:`COMPACT_FLOOR`),
#: so each update costs a constant amount amortized and the files on
#: disk stay a bounded multiple of the retained state.
COMPACT_RATIO = 2

#: Journal bytes below which no compaction runs (a small or missing
#: snapshot would otherwise compact on nearly every update).
COMPACT_FLOOR = 64 * 1024


class SpecError(ConfigError):
    """A submitted job spec failed validation (HTTP 400)."""


class JobNotFound(KeyError):
    """No record for a job id: never minted, or expired (retention).

    The message says which (``no job X`` or ``job X expired``); the API
    answers 404 with it.
    """

    def __str__(self) -> str:
        return str(self.args[0])


#: Ceiling on a fuzz cell's iteration budget: a cell holds a pool
#: worker for its whole campaign, and campaign time grows with budget.
MAX_FUZZ_BUDGET = 10_000

#: Ceiling on a simulation cell's ``scale``: the paper's full size, the
#: scale of the stored paper matrix.  A cell holds a pool worker for
#: its whole run, and run time grows with scale.
MAX_SCALE = 1.0


def _validate_trace(spec: dict) -> str | None:
    """Validate an optional client-supplied ``trace`` id.

    Submitters may name the distributed trace their job's spans land
    in (e.g. to correlate across services); otherwise the job id
    becomes the trace id.  Must be a short filename/grep-safe token.
    """
    trace = spec.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, str) or not TRACE_ID.match(trace):
        raise SpecError(
            "'trace' must match [A-Za-z0-9._:-]{1,64}, got " f"{trace!r}"
        )
    return trace


def _validate_fuzz_spec(spec: dict) -> dict:
    """Validate a ``kind="fuzz"`` spec: one campaign cell per seed."""
    seeds = list(spec.get("seeds") or ())
    if not seeds:
        raise SpecError("fuzz spec needs non-empty 'seeds'")
    if not all(
        isinstance(seed, int) and not isinstance(seed, bool)
        for seed in seeds
    ):
        raise SpecError("'seeds' must be integers (booleans rejected)")
    seeds = list(dict.fromkeys(seeds))
    budget = spec.get("budget", 50)
    if (
        not isinstance(budget, int) or isinstance(budget, bool)
        or not 1 <= budget <= MAX_FUZZ_BUDGET
    ):
        raise SpecError(
            f"'budget' must be an integer in 1..{MAX_FUZZ_BUDGET}, "
            f"got {budget!r}"
        )
    protocols = list(spec.get("protocols") or DEFAULT_PROTOCOLS)
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise SpecError(f"unknown protocol {protocol!r}")
    protocols = list(dict.fromkeys(protocols))
    interconnect = spec.get("interconnect", "bus")
    if interconnect not in ("bus", "directory"):
        raise SpecError(
            f"'interconnect' must be 'bus' or 'directory', "
            f"got {interconnect!r}"
        )
    priority = spec.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise SpecError(f"'priority' must be an integer, got {priority!r}")
    out = {
        "kind": "fuzz",
        "seeds": seeds,
        "budget": budget,
        "protocols": protocols,
        "interconnect": interconnect,
        "priority": priority,
    }
    trace = _validate_trace(spec)
    if trace is not None:
        out["trace"] = trace
    return out


def validate_spec(spec: dict) -> dict:
    """Normalize and validate a job spec; raises :class:`SpecError`.

    Two spec kinds exist.  The default simulation spec requires
    ``benchmarks`` (known names), ``techniques`` (known names), and
    ``seeds`` (ints; booleans rejected), with optional ``scale``
    (a number in (0, :data:`MAX_SCALE`], default 0.1) and ``priority`` (int,
    default 0; booleans rejected).
    A ``{"kind": "fuzz"}`` spec instead describes fuzzing campaigns —
    one cell per entry of ``seeds`` — with optional ``budget``,
    ``protocols``, ``interconnect``, and ``priority``.  Each axis is
    deduplicated preserving first-seen order — a repeated value would
    mint the same cell fingerprint twice within one job
    (double-credited cells, duplicate result rows).
    """
    if not isinstance(spec, dict):
        raise SpecError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind", "sim")
    if kind == "fuzz":
        return _validate_fuzz_spec(spec)
    if kind != "sim":
        raise SpecError(f"unknown job kind {kind!r} (expected sim or fuzz)")
    known = set(BENCHMARKS) | set(EXTRA_BENCHMARKS)
    benchmarks = list(spec.get("benchmarks") or ())
    techniques = list(spec.get("techniques") or ())
    seeds = list(spec.get("seeds") or ())
    if not benchmarks or not techniques or not seeds:
        raise SpecError(
            "job spec needs non-empty 'benchmarks', 'techniques', 'seeds'"
        )
    for benchmark in benchmarks:
        if benchmark not in known:
            raise SpecError(f"unknown benchmark {benchmark!r}")
    for technique in techniques:
        if technique not in ALL_TECHNIQUES:
            raise SpecError(f"unknown technique {technique!r}")
    if not all(
        isinstance(seed, int) and not isinstance(seed, bool)
        for seed in seeds
    ):
        raise SpecError("'seeds' must be integers (booleans rejected)")
    benchmarks = list(dict.fromkeys(benchmarks))
    techniques = list(dict.fromkeys(techniques))
    seeds = list(dict.fromkeys(seeds))
    scale = spec.get("scale", 0.1)
    # The chained test also rejects NaN, which json.loads accepts.
    if (
        not isinstance(scale, (int, float)) or isinstance(scale, bool)
        or not 0 < scale <= MAX_SCALE
    ):
        raise SpecError(
            f"'scale' must be a number in (0, {MAX_SCALE}], got {scale!r}"
        )
    priority = spec.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise SpecError(f"'priority' must be an integer, got {priority!r}")
    out = {
        "benchmarks": benchmarks,
        "techniques": techniques,
        "seeds": seeds,
        "scale": float(scale),
        "priority": priority,
    }
    trace = _validate_trace(spec)
    if trace is not None:
        out["trace"] = trace
    return out


def cell_identity(
    benchmark: str, technique: str, seed: int, scale: float,
) -> str:
    """The fingerprint of one cell: its result-store key.

    The same :func:`~repro.experiments.runner.cell_fingerprint` of the
    same per-cell config a default
    :class:`~repro.experiments.runner.MatrixRunner` computes, so a
    cell either of them stored is served to both.
    """
    return cell_fingerprint(
        cell_config(scaled_config(), technique), benchmark, scale, seed,
    )


def fuzz_cell_identity(
    seed: int, budget: int, protocols: list[str], interconnect: str,
) -> str:
    """The fingerprint of one fuzz campaign cell.

    A campaign is a pure function of these four parameters, so the
    hash of their canonical JSON identifies its result exactly — the
    same dedupe/cache-hit contract simulation cells get from
    :func:`cell_identity`.
    """
    doc = json.dumps(
        {
            "seed": seed,
            "budget": budget,
            "protocols": list(protocols),
            "interconnect": interconnect,
        },
        sort_keys=True,
    )
    return "fuzz-" + hashlib.sha256(doc.encode()).hexdigest()[:16]


class JobQueue:
    """The durable cell queue described in the module docstring."""

    def __init__(
        self,
        root: str | Path,
        events: EventLog | None = None,
        clock: Callable[[], float] = time.perf_counter,
        traces: JobTraceStore | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.events = events or EventLog()
        self.clock = clock
        self.traces = traces if traces is not None else JobTraceStore()
        # The one store of lease waits: ``lease_stats`` reads it too.
        self._lease_wait = (metrics or MetricsRegistry()).histogram(
            "repro_service_lease_latency_seconds",
            "queued -> leased wait per cell",
            bounds=LEASE_LATENCY_BOUNDS,
        ).labels().hist
        self._state_path = self.root / "state.json"
        self._journal_path = self.root / "journal.jsonl"
        # Reentrant: public methods take it and call helpers that
        # assume it is held; queue -> events is the only lock order.
        self._lock = threading.RLock()
        self._seq = 0
        self.jobs: dict[str, dict[str, Any]] = {}
        self.cells: dict[str, dict[str, Any]] = {}
        # Terminal job ids, oldest first: retention drops from the front.
        self._terminal: dict[str, None] = {}
        # The keys the current update touched: _commit journals them.
        self._dirty_jobs: set[str] = set()
        self._dirty_cells: set[str] = set()
        self._snapshot_bytes = 0
        self._journal_bytes = 0
        self._load()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _load(self) -> None:
        """Recover the snapshot and the journal; leased cells return to
        queued, and a crashed compaction's temp files are deleted.

        A record from a queue that kept lease deadlines carries a
        ``lease`` field; nothing reads it, so load drops it."""
        for stale in self.root.glob(self._state_path.name + ".*.tmp"):
            stale.unlink(missing_ok=True)
        if self._state_path.exists():
            text = self._state_path.read_text()
            doc = json.loads(text)
            self._seq = doc["seq"]
            self.jobs = doc["jobs"]
            self.cells = doc["cells"]
            self._terminal = dict.fromkeys(doc.get("terminal", ()))
            # A snapshot written before retention lists no terminal
            # order: take its terminal jobs in id order.
            self._retain(sorted(self.jobs))
            self._snapshot_bytes = len(text)
        self._replay()
        # In this process's fresh trace store an old id names a new span.
        for job in self.jobs.values():
            job["span"] = None
        for cell in self.cells.values():
            cell.update(job_span=None, lease_span=None)
            cell.pop("lease", None)
            if cell["state"] == "leased":
                # The lease holder died with the previous process;
                # deterministic cells are always safe to re-run.
                cell["state"] = "queued"

    def _replay(self) -> None:
        """Apply every whole journal line and cut what follows the last
        one that parses (a torn tail) off the file."""
        try:
            data = self._journal_path.read_bytes()
        except FileNotFoundError:
            return
        whole = 0
        while (end := data.find(b"\n", whole)) >= 0:
            try:
                update = json.loads(data[whole:end])
            except ValueError:
                break
            self._apply(update)
            whole = end + 1
        if whole < len(data):
            with open(self._journal_path, "r+b") as journal:
                journal.truncate(whole)
        self._journal_bytes = whole

    def _apply(self, update: dict[str, Any]) -> None:
        """Set, or delete for ``null``, every record one line carries."""
        self._seq = update["seq"]
        for table, records in (
            (self.jobs, update["jobs"]), (self.cells, update["cells"]),
        ):
            for key, record in records.items():
                if record is None:
                    table.pop(key, None)
                else:
                    table[key] = record
        self._retain(update["jobs"])

    def _retain(self, job_ids: Iterable[str]) -> None:
        """Keep the terminal order: append the jobs among ``job_ids``
        that ended, forget the deleted ones.  Live updates and replay
        both pass a line's job ids in sorted order, so a reload
        rebuilds the same order."""
        for job_id in job_ids:
            job = self.jobs.get(job_id)
            if job is None:
                self._terminal.pop(job_id, None)
            elif job["status"] in JOB_TERMINAL:
                self._terminal.setdefault(job_id)

    def _commit(self) -> None:
        """Journal the update: drop the terminal jobs past retention,
        with their event views, then append one line with every
        touched record."""
        if not (self._dirty_jobs or self._dirty_cells):
            return
        self._retain(sorted(self._dirty_jobs))
        if len(self._terminal) > RETAIN_TERMINAL:
            while len(self._terminal) > RETAIN_TERMINAL:
                expired = next(iter(self._terminal))
                del self._terminal[expired]
                del self.jobs[expired]
                self._dirty_jobs.add(expired)
                self.events.prune_job(expired)
            self._gc_cells()
        line = json.dumps({
            "seq": self._seq,
            "jobs": {j: self.jobs.get(j) for j in sorted(self._dirty_jobs)},
            "cells": {f: self.cells.get(f) for f in sorted(self._dirty_cells)},
        }, sort_keys=True) + "\n"
        with open(self._journal_path, "a") as journal:
            journal.write(line)
        # Cleared only once written: a failed append leaves the keys
        # for the next update to journal.
        self._dirty_jobs.clear()
        self._dirty_cells.clear()
        self._journal_bytes += len(line)
        if self._journal_bytes > max(
            COMPACT_RATIO * self._snapshot_bytes, COMPACT_FLOOR,
        ):
            self._compact()

    def _compact(self) -> None:
        """Fold the journal into a fresh snapshot, then empty it."""
        text = json.dumps({
            "seq": self._seq, "jobs": self.jobs, "cells": self.cells,
            "terminal": list(self._terminal),
        }, sort_keys=True)
        atomic_write(self._state_path, text)
        self._snapshot_bytes = len(text)
        with open(self._journal_path, "w"):
            pass
        self._journal_bytes = 0

    def _next_id(self, prefix: str) -> str:
        """Mint an id from the persisted sequence counter."""
        self._seq += 1
        return f"{prefix}-{self._seq:06d}"

    def _job(self, job_id: str) -> dict[str, Any]:
        """The job's record; raises :class:`JobNotFound` saying whether
        the id expired or was never minted."""
        job = self.jobs.get(job_id)
        if job is not None:
            return job
        if self._expired(job_id):
            raise JobNotFound(f"job {job_id} expired")
        raise JobNotFound(f"no job {job_id}")

    def _expired(self, job_id: str) -> bool:
        """Whether the counter minted ``job_id`` and retention dropped
        its record."""
        number = job_id.removeprefix("job-")
        return (
            job_id not in self.jobs and number.isdecimal()
            and job_id == f"job-{int(number):06d}"
            and int(number) <= self._seq
        )

    def _ended(self, job_id: str) -> bool:
        """A job waits on nothing once terminal, or once expired."""
        job = self.jobs.get(job_id)
        return job is None or job["status"] in JOB_TERMINAL

    def _waiting(self, cell: dict[str, Any]) -> list[str]:
        """The jobs still waiting on ``cell``: the views its events
        join."""
        return [j for j in cell["jobs"] if not self._ended(j)]

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _cell_payloads(self, spec: dict) -> list[tuple[str, dict[str, Any]]]:
        """``(fingerprint, payload)`` for every cell of a valid spec.

        The payload is the kind-specific part of the cell record; the
        queue bookkeeping fields (state, jobs, retries, order)
        are layered on by :meth:`submit`.  Simulation cells carry no
        ``kind`` key — records persisted by earlier versions must keep
        deserializing as simulation cells.
        """
        if spec.get("kind") == "fuzz":
            return [
                (
                    fuzz_cell_identity(
                        seed, spec["budget"], spec["protocols"],
                        spec["interconnect"],
                    ),
                    {
                        "kind": "fuzz",
                        "seed": seed,
                        "budget": spec["budget"],
                        "protocols": spec["protocols"],
                        "interconnect": spec["interconnect"],
                    },
                )
                for seed in spec["seeds"]
            ]
        return [
            (
                cell_identity(benchmark, technique, seed, spec["scale"]),
                {
                    "benchmark": benchmark,
                    "technique": technique,
                    "seed": seed,
                    "scale": spec["scale"],
                },
            )
            for benchmark in spec["benchmarks"]
            for technique in spec["techniques"]
            for seed in spec["seeds"]
        ]

    def submit(self, spec: dict) -> dict[str, Any]:
        """Accept a spec; returns the job record (raises SpecError)."""
        spec = validate_spec(spec)
        with self._lock:
            job_id = self._next_id("job")
            # The distributed trace every span and event of this job
            # lands in: client-supplied, or the job id itself — both
            # deterministic (the id comes from the persisted counter).
            trace = spec.get("trace") or job_id
            job_span = self.traces.span_begin(trace, "job", job=job_id)
            fingerprints: list[str] = []
            # Recorded first, so the job waits on each cell it joins.
            job = {
                "id": job_id,
                "spec": spec,
                "priority": spec["priority"],
                "cells": fingerprints,
                "status": "queued",
                "reason": None,
                "trace": trace,
                "span": job_span,
            }
            self.jobs[job_id] = job
            self._dirty_jobs.add(job_id)
            for fingerprint, payload in self._cell_payloads(spec):
                fingerprints.append(fingerprint)
                self._dirty_cells.add(fingerprint)
                live = self.cells.get(fingerprint)
                if live is not None and live["state"] in (
                    "queued", "leased",
                ):
                    live["jobs"].append(job_id)
                    self.events.emit(
                        "cell.deduped", self._waiting(live), job=job_id,
                        fingerprint=fingerprint, trace=trace,
                    )
                    continue
                # Replacing a finished (done/failed) record:
                # jobs still waiting on their *other* cells
                # reference this fingerprint, and must carry
                # over into the fresh cell — otherwise the
                # re-run's completion would never credit them
                # and they would stay non-terminal forever.
                carried = self._waiting(live) if live else []
                cell = self.cells[fingerprint] = {
                    "fingerprint": fingerprint,
                    **payload,
                    "state": "queued",
                    "jobs": carried + [job_id],
                    "retries": 0,
                    "order": self._seq,
                    "trace": trace,
                    "job_span": job_span,
                    "lease_span": None,
                    "enqueued_at": self.clock(),
                }
                self.events.emit(
                    "cell.enqueued", self._waiting(cell), job=job_id,
                    fingerprint=fingerprint, trace=trace,
                )
            self.events.emit(
                "job.enqueued", (job_id,), job=job_id,
                cells=len(fingerprints), trace=trace,
            )
            self._commit()
            return job

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------

    def _priority(self, cell: dict[str, Any]) -> int:
        """A cell leases at the highest priority of its live jobs.

        Takes the (reentrant) lock itself: it is invoked through
        ``lease``'s sort-key lambda, which the static call graph
        cannot follow into, so it cannot be proven lock-held.
        """
        with self._lock:
            return max(
                (self.jobs[j]["priority"] for j in self._waiting(cell)),
                default=0,
            )

    def lease(self, worker: str) -> dict[str, Any] | None:
        """Lease the best queued cell to ``worker``, if any; the worker
        reports its outcome (:meth:`complete` or :meth:`fail`)."""
        with self._lock:
            queued = [
                c for c in self.cells.values() if c["state"] == "queued"
            ]
            if not queued:
                return None
            cell = min(queued, key=lambda c: (-self._priority(c), c["order"]))
            cell["state"] = "leased"
            now = self.clock()
            enqueued_at = cell.get("enqueued_at")
            if enqueued_at is not None:
                self._lease_wait.record(max(now - enqueued_at, 0.0))
            trace = cell.get("trace")
            if trace is not None:
                cell["lease_span"] = self.traces.span_begin(
                    trace, "cell.lease", parent=cell.get("job_span"),
                    fingerprint=cell["fingerprint"], worker=worker,
                )
            self.events.emit(
                "cell.leased", self._waiting(cell),
                fingerprint=cell["fingerprint"], worker=worker, trace=trace,
            )
            return dict(cell)

    def fail(self, fingerprint: str, reason: str) -> None:
        """The worker that leased the cell reports it lost (``reason``:
        ``worker_death`` or ``worker_error``); retry or fail it."""
        with self._lock:
            cell = self.cells.get(fingerprint)
            if cell is None or cell["state"] != "leased":
                return
            self._dirty_cells.add(fingerprint)
            trace = cell.get("trace")
            if trace is not None:
                self.traces.span_end(
                    trace, cell.get("lease_span"), outcome=reason,
                )
                cell["lease_span"] = None
            waiting = self._waiting(cell)
            if cell["retries"] < MAX_RETRIES:
                cell["retries"] += 1
                cell["state"] = "queued"
                cell["enqueued_at"] = self.clock()
                self.events.emit(
                    "cell.retried", waiting, fingerprint=fingerprint,
                    reason=reason, trace=trace,
                )
            else:
                cell["state"] = "failed"
                self.events.emit(
                    "cell.failed", waiting, fingerprint=fingerprint,
                    reason=reason, trace=trace,
                )
                for job_id in waiting:
                    self._finish_job(job_id, "failed")
            self._commit()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def start(self, fingerprint: str, worker: str) -> None:
        """A worker began running its leased cell (the store did not
        hold it): emit ``cell.started``.  Appends nothing, like the
        lease."""
        with self._lock:
            cell = self.cells.get(fingerprint)
            if cell is None or cell["state"] in ("done", "failed"):
                return
            self.events.emit(
                "cell.started", self._waiting(cell),
                fingerprint=fingerprint, worker=worker,
                trace=cell.get("trace"),
            )

    def complete(
        self, fingerprint: str, cached: bool = False,
        findings: Iterable[str] = (),
    ) -> None:
        """Mark a cell done (its result is in the store) and credit jobs.

        A cell served from the store (``cached``) first gets
        ``cell.cache_hit``, and a fuzz cell one ``cell.fuzz_finding``
        per finding kind in ``findings``.
        """
        with self._lock:
            cell = self.cells.get(fingerprint)
            if cell is None or cell["state"] in ("done", "failed"):
                return
            trace = cell.get("trace")
            waiting = self._waiting(cell)
            if cached:
                self.events.emit(
                    "cell.cache_hit", waiting, fingerprint=fingerprint,
                    trace=trace,
                )
            for finding in findings:
                self.events.emit(
                    "cell.fuzz_finding", waiting, fingerprint=fingerprint,
                    finding=finding, trace=trace,
                )
            self._dirty_cells.add(fingerprint)
            cell["state"] = "done"
            if trace is not None:
                self.traces.span_end(
                    trace, cell.get("lease_span"), outcome="done",
                )
                cell["lease_span"] = None
            self.events.emit(
                "cell.finished", waiting, fingerprint=fingerprint,
                trace=trace,
            )
            for job_id in waiting:
                if all(
                    self.cells.get(f, {}).get("state") == "done"
                    for f in self.jobs[job_id]["cells"]
                ):
                    self._finish_job(job_id, "done")
            self._gc_cells()
            self._commit()

    def _finish_job(self, job_id: str, reason: str) -> None:
        """Move a job to a terminal state and emit ``job.completed``."""
        job = self.jobs.get(job_id)
        if job is None or job["status"] in JOB_TERMINAL:
            return
        self._dirty_jobs.add(job_id)
        job["status"] = reason
        job["reason"] = reason
        trace = job.get("trace")
        if trace is not None:
            self.traces.span_end(trace, job.get("span"), reason=reason)
        self.events.emit(
            "job.completed", (job_id,), job=job_id, reason=reason,
            trace=trace,
        )

    def _gc_cells(self) -> None:
        """Drop done cells no job waits on, and failed cells whose
        every job expired.

        This is what makes an identical re-submission take the
        enqueue -> lease -> ``cell.cache_hit`` path: the live set only
        dedupes *in-flight* work; finished results live in the result
        store, not the queue.  A failed cell stays while a held job
        still reports it.
        """
        dead = [
            f for f, cell in self.cells.items()
            if (cell["state"] == "done" and not self._waiting(cell))
            or (cell["state"] == "failed"
                and not any(j in self.jobs for j in cell["jobs"]))
        ]
        for fingerprint in dead:
            self._drop_cell(fingerprint)

    def _drop_cell(self, fingerprint: str) -> None:
        """Delete a cell record (journaled as ``null``)."""
        del self.cells[fingerprint]
        self._dirty_cells.add(fingerprint)

    # ------------------------------------------------------------------
    # Cancellation / inspection
    # ------------------------------------------------------------------

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job; drains its exclusively-held queued cells."""
        with self._lock:
            job = self._job(job_id)
            if job["status"] in JOB_TERMINAL:
                return dict(job)
            self._finish_job(job_id, "cancelled")
            for fingerprint in job["cells"]:
                cell = self.cells.get(fingerprint)
                if cell is None:
                    continue
                if cell["state"] == "queued" and not self._waiting(cell):
                    # Nobody else wants it and no worker holds it: drop.
                    self._drop_cell(fingerprint)
                # A leased cell finishes its run (the result is still
                # stored); the cancelled job just no longer waits on it.
            self._gc_cells()
            self._commit()
            return dict(job)

    def job_status(self, job_id: str) -> dict[str, Any]:
        """The job record plus per-cell states (raises JobNotFound).

        A cancelled job waits on none of its cells, so each one not
        done reads ``dropped``: drained, still queued for another job,
        or running on a worker that held it when the cancel landed.
        """
        with self._lock:
            job = self._job(job_id)
            cancelled = job["status"] == "cancelled"
            cells = {}
            for fingerprint in job["cells"]:
                cell = self.cells.get(fingerprint)
                if cell is None:
                    state = "dropped" if cancelled else "done"
                elif cancelled and cell["state"] != "done":
                    state = "dropped"
                else:
                    state = cell["state"]
                cells[fingerprint] = state
            return {**job, "cell_states": cells}

    def job_trace(self, job_id: str) -> str | None:
        """The job's distributed-trace id (raises JobNotFound)."""
        with self._lock:
            return self._job(job_id).get("trace")

    def depth_counts(self) -> dict[str, Any]:
        """Cells by state and held jobs by status, plus the ``expired``
        jobs retention dropped (telemetry sampling)."""
        with self._lock:
            cells: dict[str, int] = {}
            for cell in self.cells.values():
                cells[cell["state"]] = cells.get(cell["state"], 0) + 1
            jobs: dict[str, int] = {}
            for job in self.jobs.values():
                status = job["status"]
                key = status if status in JOB_TERMINAL else "active"
                jobs[key] = jobs.get(key, 0) + 1
            # Every minted id is a job, held or expired.
            if self._seq > len(self.jobs):
                jobs["expired"] = self._seq - len(self.jobs)
            return {"cells": cells, "jobs": jobs}

    def lease_stats(self) -> dict[str, float]:
        """Cumulative queued->leased latency, read from the
        ``repro_service_lease_latency_seconds`` histogram."""
        with self._lock:
            return {
                "count": self._lease_wait.count,
                "wait_total": self._lease_wait.total,
                "wait_max": self._lease_wait.max or 0.0,
            }

    def status(self, job_id: str) -> str:
        """A job's current status string: ``expired`` once retention
        dropped its record (raises JobNotFound for an id never minted)."""
        with self._lock:
            if self._expired(job_id):
                return "expired"
            return self._job(job_id)["status"]

    def pending(self) -> Iterable[dict[str, Any]]:
        """Every live (queued or leased) cell, for inspection."""
        with self._lock:
            return [
                dict(c) for c in self.cells.values()
                if c["state"] in ("queued", "leased")
            ]
