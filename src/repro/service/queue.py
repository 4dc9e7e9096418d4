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
* **leases** — a worker takes a cell under a deadline
  (``lease_ttl`` seconds on the injected monotonic clock) and renews
  it by heartbeat; an expired or explicitly failed lease re-enqueues
  the cell exactly once per retry budget (``cell.retried{reason}``)
  before it fails for good (``cell.failed{reason}``).
* **cancellation** — cancelling a job drops its not-yet-leased cells
  (unless another job shares them) and completes the job with
  ``reason=cancelled``; an in-flight leased cell is left to finish so
  its result still lands in the store.

Durability: every mutation rewrites ``state.json`` atomically
(:func:`~repro.experiments.store.atomic_write`).  On load, cells found
*leased* are returned to *queued* — the lease holder died with the
process, and a re-run of a deterministic cell is always safe.

Thread-safety: the service offloads queue calls to executor threads
(the ``state.json`` rewrite must not block the event loop — simlint
SL201), so every public method serializes on one reentrant lock and
``jobs``/``cells``/``_seq`` must only be touched with it held
(simlint SL202 enforces this statically).  Async callers read state
through the locked :meth:`has_job`/:meth:`status` accessors.

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

from repro.common.config import scaled_config
from repro.common.errors import ConfigError
from repro.experiments.runner import cell_config, cell_fingerprint
from repro.experiments.store import atomic_write
from repro.obs.jobtrace import JobTraceStore
from repro.obs.metrics import MetricsRegistry
from repro.system.techniques import ALL_TECHNIQUES
from repro.workloads.registry import BENCHMARKS, EXTRA_BENCHMARKS

from .events import EventLog

#: Lease deadline, in seconds of the queue's monotonic clock.
DEFAULT_LEASE_TTL = 30.0

#: Client-supplied trace ids: short, grep/filename-safe tokens.
TRACE_ID = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")

#: Lease-latency histogram bounds, seconds (queued -> leased wait).
LEASE_LATENCY_BOUNDS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 30.0)

#: How many times a cell is re-enqueued after lease loss before it
#: fails for good ("exactly once" is the tested contract).
DEFAULT_MAX_RETRIES = 1

#: Terminal job states.
JOB_TERMINAL = ("done", "failed", "cancelled")


class SpecError(ConfigError):
    """A submitted job spec failed validation (HTTP 400)."""


#: Protocol names a fuzz spec may list (mirrors ProtocolSpec.NAMES;
#: kept literal so spec validation needs no verify import).
FUZZ_PROTOCOLS = ("mesi", "moesi", "mesti", "moesti", "emesti")

#: Ceiling on a fuzz cell's iteration budget: a cell is one lease, so
#: a huge budget would outlive any reasonable heartbeat horizon.
MAX_FUZZ_BUDGET = 10_000


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
    protocols = list(spec.get("protocols") or ["mesi", "mesti", "emesti"])
    for protocol in protocols:
        if protocol not in FUZZ_PROTOCOLS:
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
    (positive float, default 0.1) and ``priority`` (int, default 0).
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
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise SpecError(f"'scale' must be a positive number, got {scale!r}")
    priority = spec.get("priority", 0)
    if not isinstance(priority, int):
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
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_retries: int = DEFAULT_MAX_RETRIES,
        traces: JobTraceStore | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.events = events or EventLog()
        self.clock = clock
        self.lease_ttl = lease_ttl
        self.max_retries = max_retries
        self.traces = traces if traces is not None else JobTraceStore()
        # The one store of lease waits: ``lease_stats`` reads it too.
        self._lease_wait = (metrics or MetricsRegistry()).histogram(
            "repro_service_lease_latency_seconds",
            "queued -> leased wait per cell",
            bounds=LEASE_LATENCY_BOUNDS,
        ).labels().hist
        self._state_path = self.root / "state.json"
        # Reentrant: public methods take it and call helpers that
        # assume it is held; queue -> events is the only lock order.
        self._lock = threading.RLock()
        self._seq = 0
        self.jobs: dict[str, dict[str, Any]] = {}
        self.cells: dict[str, dict[str, Any]] = {}
        self._load()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _load(self) -> None:
        """Recover persisted state; leased cells return to queued."""
        if not self._state_path.exists():
            return
        doc = json.loads(self._state_path.read_text())
        self._seq = doc.get("seq", 0)
        self.jobs = doc.get("jobs", {})
        self.cells = doc.get("cells", {})
        for cell in self.cells.values():
            if cell["state"] == "leased":
                # The lease holder died with the previous process;
                # deterministic cells are always safe to re-run.
                cell["state"] = "queued"
                cell["lease"] = None

    def _save(self) -> None:
        """Atomically rewrite ``state.json``."""
        doc = {"seq": self._seq, "jobs": self.jobs, "cells": self.cells}
        atomic_write(self._state_path, json.dumps(doc, indent=1, sort_keys=True))

    def _next_id(self, prefix: str) -> str:
        """Mint an id from the persisted sequence counter."""
        self._seq += 1
        return f"{prefix}-{self._seq:06d}"

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _cell_payloads(self, spec: dict) -> list[tuple[str, dict[str, Any]]]:
        """``(fingerprint, payload)`` for every cell of a valid spec.

        The payload is the kind-specific part of the cell record; the
        queue bookkeeping fields (state, jobs, lease, retries, order)
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
            deduped: list[str] = []
            for fingerprint, payload in self._cell_payloads(spec):
                fingerprints.append(fingerprint)
                self.events.attach(fingerprint, job_id)
                live = self.cells.get(fingerprint)
                if live is not None and live["state"] in (
                    "queued", "leased",
                ):
                    live["jobs"].append(job_id)
                    deduped.append(fingerprint)
                    self.events.emit(
                        "cell.deduped", job=job_id,
                        fingerprint=fingerprint, trace=trace,
                    )
                    continue
                # Replacing a finished (done/failed) record:
                # jobs still waiting on their *other* cells
                # reference this fingerprint, and must carry
                # over into the fresh cell — otherwise the
                # re-run's completion would never credit them
                # and they would stay non-terminal forever.
                carried = [
                    j for j in (live["jobs"] if live else ())
                    if j in self.jobs
                    and self.jobs[j]["status"] not in JOB_TERMINAL
                ]
                self.cells[fingerprint] = {
                    "fingerprint": fingerprint,
                    **payload,
                    "state": "queued",
                    "jobs": carried + [job_id],
                    "lease": None,
                    "retries": 0,
                    "order": self._seq,
                    "trace": trace,
                    "job_span": job_span,
                    "lease_span": None,
                    "enqueued_at": self.clock(),
                }
                self.events.emit(
                    "cell.enqueued", job=job_id,
                    fingerprint=fingerprint, trace=trace,
                )
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
            self.events.emit(
                "job.enqueued", job=job_id, cells=len(fingerprints),
                trace=trace,
            )
            self._save()
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
            priorities = [
                self.jobs[job_id]["priority"]
                for job_id in cell["jobs"]
                if job_id in self.jobs
                and self.jobs[job_id]["status"] not in JOB_TERMINAL
            ]
            return max(priorities, default=0)

    def lease(self, worker: str) -> dict[str, Any] | None:
        """Take the best queued cell under a heartbeat lease, if any."""
        with self._lock:
            queued = [
                c for c in self.cells.values() if c["state"] == "queued"
            ]
            if not queued:
                return None
            cell = min(queued, key=lambda c: (-self._priority(c), c["order"]))
            cell["state"] = "leased"
            now = self.clock()
            cell["lease"] = {
                "worker": worker,
                "deadline": now + self.lease_ttl,
            }
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
                "cell.leased", fingerprint=cell["fingerprint"], worker=worker,
                trace=trace,
            )
            self._save()
            return dict(cell)

    def heartbeat(self, fingerprint: str, worker: str) -> bool:
        """Renew a live lease; False if the lease is no longer held."""
        with self._lock:
            cell = self.cells.get(fingerprint)
            if (
                cell is None or cell["state"] != "leased"
                or not cell["lease"] or cell["lease"]["worker"] != worker
            ):
                return False
            cell["lease"]["deadline"] = self.clock() + self.lease_ttl
            self._save()
            return True

    def expire_leases(self) -> list[str]:
        """Re-enqueue (or fail) every cell whose lease deadline passed."""
        with self._lock:
            now = self.clock()
            expired = [
                c["fingerprint"] for c in self.cells.values()
                if c["state"] == "leased" and c["lease"]
                and c["lease"]["deadline"] < now
            ]
            for fingerprint in expired:
                self._bounce(fingerprint, "lease_expired")
            return expired

    def fail(self, fingerprint: str, reason: str) -> None:
        """A worker reported the cell's run died; retry or fail it."""
        with self._lock:
            self._bounce(fingerprint, reason)

    def _bounce(self, fingerprint: str, reason: str) -> None:
        """Shared retry-or-fail transition for lost leases."""
        cell = self.cells.get(fingerprint)
        if cell is None or cell["state"] != "leased":
            return
        cell["lease"] = None
        trace = cell.get("trace")
        if trace is not None:
            self.traces.span_end(
                trace, cell.get("lease_span"), outcome=reason,
            )
            cell["lease_span"] = None
        if cell["retries"] < self.max_retries:
            cell["retries"] += 1
            cell["state"] = "queued"
            cell["enqueued_at"] = self.clock()
            self.events.emit(
                "cell.retried", fingerprint=fingerprint, reason=reason,
                trace=trace,
            )
        else:
            cell["state"] = "failed"
            self.events.emit(
                "cell.failed", fingerprint=fingerprint, reason=reason,
                trace=trace,
            )
            for job_id in list(cell["jobs"]):
                self._finish_job(job_id, "failed")
        self._save()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def complete(self, fingerprint: str) -> None:
        """Mark a cell done (its summary is in the store) and credit jobs."""
        with self._lock:
            cell = self.cells.get(fingerprint)
            if cell is None or cell["state"] in ("done", "failed"):
                return
            cell["state"] = "done"
            cell["lease"] = None
            trace = cell.get("trace")
            if trace is not None:
                self.traces.span_end(
                    trace, cell.get("lease_span"), outcome="done",
                )
                cell["lease_span"] = None
            self.events.emit(
                "cell.finished", fingerprint=fingerprint, trace=trace,
            )
            for job_id in list(cell["jobs"]):
                job = self.jobs.get(job_id)
                if job is None or job["status"] in JOB_TERMINAL:
                    continue
                if all(
                    self.cells.get(f, {}).get("state") == "done"
                    for f in job["cells"]
                ):
                    self._finish_job(job_id, "done")
            self._gc_cells()
            self._save()

    def _finish_job(self, job_id: str, reason: str) -> None:
        """Move a job to a terminal state and emit ``job.completed``."""
        job = self.jobs.get(job_id)
        if job is None or job["status"] in JOB_TERMINAL:
            return
        job["status"] = reason
        job["reason"] = reason
        trace = job.get("trace")
        if trace is not None:
            self.traces.span_end(trace, job.get("span"), reason=reason)
        self.events.emit(
            "job.completed", job=job_id, reason=reason, trace=trace,
        )

    def _gc_cells(self) -> None:
        """Drop done cells whose every referencing job is terminal.

        This is what makes an identical re-submission take the
        enqueue -> lease -> ``cell.cache_hit`` path: the live set only
        dedupes *in-flight* work; finished results live in the result
        store, not the queue.
        """
        dead = [
            f for f, cell in self.cells.items()
            if cell["state"] == "done" and all(
                self.jobs.get(j, {}).get("status") in JOB_TERMINAL
                for j in cell["jobs"]
            )
        ]
        for fingerprint in dead:
            del self.cells[fingerprint]
            self.events.detach_cell(fingerprint)

    # ------------------------------------------------------------------
    # Cancellation / inspection
    # ------------------------------------------------------------------

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job; drains its exclusively-held queued cells."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job["status"] in JOB_TERMINAL:
                return dict(job)
            self._finish_job(job_id, "cancelled")
            for fingerprint in job["cells"]:
                cell = self.cells.get(fingerprint)
                if cell is None:
                    continue
                others = [
                    j for j in cell["jobs"]
                    if j != job_id
                    and self.jobs.get(j, {}).get("status") not in JOB_TERMINAL
                ]
                if cell["state"] == "queued" and not others:
                    # Nobody else wants it and no worker holds it: drop.
                    del self.cells[fingerprint]
                    self.events.detach_cell(fingerprint)
                # A leased cell finishes its run (the result is still
                # stored); the cancelled job just no longer waits on it.
            self._gc_cells()
            self._save()
            return dict(job)

    def job_status(self, job_id: str) -> dict[str, Any]:
        """The job record plus per-cell states (raises KeyError).

        A cancelled job waits on none of its cells, so each one not
        done reads ``dropped``: drained, still queued for another job,
        or running on a worker that held it when the cancel landed.
        """
        with self._lock:
            job = self.jobs[job_id]
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

    def has_job(self, job_id: str) -> bool:
        """Locked existence probe (async callers must not touch
        ``jobs`` directly — simlint SL202)."""
        with self._lock:
            return job_id in self.jobs

    def job_trace(self, job_id: str) -> str | None:
        """The job's distributed-trace id (raises KeyError)."""
        with self._lock:
            return self.jobs[job_id].get("trace")

    def depth_counts(self) -> dict[str, Any]:
        """Cells by state and jobs by status (telemetry sampling)."""
        with self._lock:
            cells: dict[str, int] = {}
            for cell in self.cells.values():
                cells[cell["state"]] = cells.get(cell["state"], 0) + 1
            jobs: dict[str, int] = {}
            for job in self.jobs.values():
                status = job["status"]
                key = status if status in JOB_TERMINAL else "active"
                jobs[key] = jobs.get(key, 0) + 1
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
        """A job's current status string (raises KeyError)."""
        with self._lock:
            return self.jobs[job_id]["status"]

    def pending(self) -> Iterable[dict[str, Any]]:
        """Every live (queued or leased) cell, for inspection."""
        with self._lock:
            return [
                dict(c) for c in self.cells.values()
                if c["state"] in ("queued", "leased")
            ]
