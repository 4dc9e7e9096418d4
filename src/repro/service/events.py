"""The service's named event contract (VC-02 discipline).

Every queue / lease / worker state transition in the service emits a
*named, declared* event: the full vocabulary lives in
:data:`EVENT_SPECS`, each entry stating the fields the event must
carry.  Emission goes through :class:`EventLog`, which

* rejects undeclared event names and missing required fields at emit
  time (the contract is enforced in production, not just in tests);
* appends the event to a global ordered log and to a per-job view
  (``GET /jobs/{id}/events`` streams the latter as NDJSON);
* increments a ``repro_service_events_total{event=...}`` counter on
  the attached :class:`~repro.obs.metrics.MetricsRegistry` so the
  Prometheus export shows event rates with zero extra wiring.

simlint rule SL009 closes the loop statically: service modules may
only ``.emit()`` string-literal names declared here.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.ring import Ring

#: Ring cap on the in-memory global log: only the newest this-many
#: records are retained (the NDJSON dump covers at most this window).
#: A long-running ``repro-sim serve`` would otherwise leak memory
#: proportional to every event it ever emitted.
DEFAULT_MAX_RECORDS = 100_000

#: How many *terminal* jobs keep their per-job event view, so
#: ``GET /jobs/{id}/events`` can still replay a recently finished
#: job's history.  Older terminal jobs' views are dropped.
DEFAULT_RETAIN_TERMINAL = 256


@dataclass(frozen=True)
class EventSpec:
    """Declaration of one named service event.

    ``fields`` must be present on every emit; ``optional`` fields may
    be — anything else is rejected at emit time (and statically by
    simlint SL205), so an event's payload surface is exactly what is
    declared here.
    """

    name: str
    description: str
    fields: tuple[str, ...] = ()   # required payload fields
    optional: tuple[str, ...] = ()  # declared but not required


def _registry(*specs: EventSpec) -> dict[str, EventSpec]:
    """Build the name -> spec mapping, rejecting duplicates."""
    out: dict[str, EventSpec] = {}
    for spec in specs:
        if spec.name in out:
            raise ValueError(f"duplicate event spec: {spec.name}")
        out[spec.name] = spec
    return out


#: The closed event vocabulary.  ``job.*`` events carry a ``job`` id;
#: ``cell.*`` events carry the cell ``fingerprint`` (and ``job`` when
#: the transition is attributable to one submission).
EVENT_SPECS: dict[str, EventSpec] = _registry(
    EventSpec("job.enqueued", "a submitted spec was accepted and exploded "
              "into cells", ("job", "cells"), optional=("trace",)),
    EventSpec("job.completed", "a job reached a terminal state; reason is "
              "done | failed | cancelled", ("job", "reason"),
              optional=("trace",)),
    EventSpec("cell.enqueued", "a new cell entered the queue",
              ("job", "fingerprint"), optional=("trace",)),
    EventSpec("cell.deduped", "a submission matched an in-flight cell and "
              "shares its run", ("job", "fingerprint"),
              optional=("trace",)),
    EventSpec("cell.leased", "a worker took the cell under a heartbeat "
              "lease", ("fingerprint", "worker"), optional=("trace",)),
    EventSpec("cell.started", "a worker began simulating the cell (it was "
              "not cached)", ("fingerprint", "worker"),
              optional=("trace",)),
    EventSpec("cell.cache_hit", "the cell was served from the result store "
              "without simulation", ("fingerprint",),
              optional=("trace",)),
    EventSpec("cell.finished", "the cell's summary is stored and its jobs "
              "were credited", ("fingerprint",), optional=("trace",)),
    EventSpec("cell.retried", "the cell was re-enqueued; reason is "
              "lease_expired | worker_death | worker_error",
              ("fingerprint", "reason"), optional=("trace",)),
    EventSpec("cell.failed", "the cell exhausted its retries; reason as "
              "for cell.retried", ("fingerprint", "reason"),
              optional=("trace",)),
    EventSpec("cell.fuzz_finding", "a fuzz campaign cell surfaced a "
              "finding; finding is its kind (e.g. "
              "differential-divergence)", ("fingerprint", "finding"),
              optional=("trace",)),
)

#: Just the declared names (what SL009 checks literals against).
EVENT_NAMES = frozenset(EVENT_SPECS)


class EventLog:
    """Ordered, validated, observable log of service events.

    ``metrics`` defaults to a private :class:`MetricsRegistry`, so a
    log built without observability attached still counts its events.
    Subscribers (see :meth:`subscribe`) are called synchronously after
    each append — the API layer uses this to wake NDJSON streams.

    Memory is bounded for long-running services: the global log keeps
    only the newest ``max_records`` records (a
    :class:`~repro.obs.ring.Ring`, whose overwrites are
    :attr:`dropped` and exported as
    ``repro_service_events_dropped_total``), and the per-job views of
    jobs long past their ``job.completed`` event are pruned once more
    than ``retain_terminal`` jobs have finished after them.  Pass
    ``None`` for either to keep everything (the pure state-machine
    tests do).

    Thread-safety: the service emits from executor threads (queue and
    store calls are offloaded so their file I/O stays off the event
    loop), so all log state is serialized on one reentrant lock.
    Subscribers are called *outside* the lock — a subscriber that
    re-enters the log or wakes the loop must not be able to deadlock
    against a concurrent emitter.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        max_records: int | None = DEFAULT_MAX_RECORDS,
        retain_terminal: int | None = DEFAULT_RETAIN_TERMINAL,
    ):
        if metrics is None:
            metrics = MetricsRegistry()
        self._counter = metrics.counter(
            "repro_service_events_total",
            "service events by declared name", labels=("event",),
        )
        # Read from the ring at export, so the Prometheus text shows
        # an explicit 0 before any overwrite.
        metrics.counter(
            "repro_service_events_dropped_total",
            "global event-ring records overwritten before any dump/replay",
        ).view(lambda: self.dropped)
        self._seq = 0
        self.retain_terminal = retain_terminal
        self._lock = threading.RLock()
        self.records: Ring[dict[str, Any]] = Ring(max_records)
        self._by_job: dict[str, list[dict[str, Any]]] = defaultdict(list)
        self._cell_jobs: dict[str, set[str]] = defaultdict(set)
        self._terminal_jobs: deque[str] = deque()
        self._subscribers: list[Callable[[dict[str, Any]], None]] = []

    @property
    def dropped(self) -> int:
        """Records the global ring overwrote."""
        with self._lock:
            return self.records.dropped

    def emit(self, name: str, **fields: Any) -> dict[str, Any]:
        """Record one event; raises on undeclared names/missing or
        undeclared fields."""
        spec = EVENT_SPECS.get(name)
        if spec is None:
            raise ValueError(f"undeclared service event: {name!r}")
        missing = [f for f in spec.fields if f not in fields]
        if missing:
            raise ValueError(
                f"event {name!r} is missing required fields {missing}"
            )
        undeclared = [
            f for f in fields
            if f not in spec.fields and f not in spec.optional
        ]
        if undeclared:
            raise ValueError(
                f"event {name!r} carries undeclared fields {undeclared}"
            )
        with self._lock:
            self._seq += 1
            record = {"seq": self._seq, "event": name, **fields}
            self.records.append(record)
            # Route the record into every interested job's view: the
            # explicit ``job`` field, plus every job attached to the
            # cell fingerprint (cell.leased/started/... carry only the
            # fingerprint, but a job's stream must show its cells'
            # whole lifecycle — including cells it shares with other
            # jobs).
            jobs = set()
            if fields.get("job") is not None:
                jobs.add(fields["job"])
            fingerprint = fields.get("fingerprint")
            if fingerprint is not None:
                jobs |= self._cell_jobs.get(fingerprint, set())
            for job in sorted(jobs):
                self._by_job[job].append(record)
            if name == "job.completed":
                self._close_job_view(fields.get("job"))
            self._counter.labels(event=name).inc()
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(record)
        return record

    def _close_job_view(self, job: str | None) -> None:
        """End a now-terminal job's view at its ``job.completed``.

        The job stops receiving its cells' events (a cell a worker
        still holds after a cancel or a sibling's failure runs on, and
        its ``cell.started``/``cell.finished`` must not land after the
        terminal record a stream ends on), and the view is queued for
        retention-based pruning: it survives the next
        ``retain_terminal`` job completions, so recently finished jobs
        still replay their full history to late-attaching streams.
        """
        if job is None:
            return
        for fingerprint in [
            f for f, jobs in self._cell_jobs.items() if job in jobs
        ]:
            jobs = self._cell_jobs[fingerprint]
            jobs.discard(job)
            if not jobs:
                del self._cell_jobs[fingerprint]
        if self.retain_terminal is None:
            return
        self._terminal_jobs.append(job)
        while len(self._terminal_jobs) > self.retain_terminal:
            self.prune_job(self._terminal_jobs.popleft())

    def prune_job(self, job_id: str) -> None:
        """Drop one job's per-job view (the shared records stay in
        the global ring until they age out)."""
        with self._lock:
            self._by_job.pop(job_id, None)

    def attach(self, fingerprint: str, job: str) -> None:
        """Stream future events for this cell into ``job``'s view."""
        with self._lock:
            self._cell_jobs[fingerprint].add(job)

    def detach_cell(self, fingerprint: str) -> None:
        """Forget a retired cell's job routing (the cell left the
        live set; a later identical submission re-attaches)."""
        with self._lock:
            self._cell_jobs.pop(fingerprint, None)

    def subscribe(self, callback: Callable[[dict[str, Any]], None]) -> None:
        """Call ``callback(record)`` after every future emit."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[dict[str, Any]], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe`."""
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def for_job(self, job_id: str) -> list[dict[str, Any]]:
        """The events attributed to one job, in emission order."""
        with self._lock:
            return list(self._by_job.get(job_id, ()))

    def named(self, name: str) -> list[dict[str, Any]]:
        """Every record of one declared event name."""
        with self._lock:
            return [r for r in self.records if r["event"] == name]

    def tail(self, n: int) -> list[dict[str, Any]]:
        """The newest ``n`` records (the ``/telemetry`` event tail)."""
        with self._lock:
            records = list(self.records)
        return records[-n:]

    def occupancy(self) -> dict[str, Any]:
        """Ring occupancy for telemetry sampling."""
        with self._lock:
            return {
                "records": len(self.records),
                "capacity": self.records.capacity,
                "dropped": self.records.dropped,
                "views": len(self._by_job),
            }

    def to_ndjson(self) -> str:
        """The retained log (newest ``max_records`` records), one
        JSON object per line (the CI artifact)."""
        import json

        with self._lock:
            return "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in self.records)
