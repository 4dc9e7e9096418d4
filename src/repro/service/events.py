"""The service's named event contract (VC-02 discipline).

Every queue / lease / worker state transition in the service emits a
*named, declared* event: the full vocabulary lives in
:data:`EVENT_SPECS`, each entry stating the fields the event must
carry.  Emission goes through :class:`EventLog`, which

* rejects undeclared event names and missing required fields at emit
  time (the contract is enforced in production, not just in tests);
* appends the event to a global ordered log and to the per-job
  views of the jobs its emitter names (``GET /jobs/{id}/events``
  streams a view as NDJSON);
* increments a ``repro_service_events_total{event=...}`` counter on
  the attached :class:`~repro.obs.metrics.MetricsRegistry` so the
  Prometheus export shows event rates with zero extra wiring.

simlint rule SL009 closes the loop statically: service modules may
only ``.emit()`` string-literal names declared here.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.ring import Ring

#: Ring cap on the in-memory global log: only the newest this-many
#: records are retained (the NDJSON dump covers at most this window).
#: A long-running ``repro-sim serve`` would otherwise leak memory
#: proportional to every event it ever emitted.
MAX_RECORDS = 100_000


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
    EventSpec("cell.leased", "a worker took the cell; it reports the "
              "cell's outcome", ("fingerprint", "worker"),
              optional=("trace",)),
    EventSpec("cell.started", "a worker began simulating the cell (it was "
              "not cached)", ("fingerprint", "worker"),
              optional=("trace",)),
    EventSpec("cell.cache_hit", "the cell was served from the result store "
              "without simulation", ("fingerprint",),
              optional=("trace",)),
    EventSpec("cell.finished", "the cell's summary is stored and its jobs "
              "were credited", ("fingerprint",), optional=("trace",)),
    EventSpec("cell.retried", "the cell was re-enqueued; reason is "
              "worker_death | worker_error",
              ("fingerprint", "reason"), optional=("trace",)),
    EventSpec("cell.failed", "the cell exhausted its retries; reason as "
              "for cell.retried", ("fingerprint", "reason"),
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

    The log keeps no job lifecycle: the emitter (the
    :class:`~repro.service.queue.JobQueue`, from its durable records)
    names the views each record joins and prunes the views it expires.

    Memory is bounded for long-running services: the global log keeps
    only the newest :data:`MAX_RECORDS` records (a
    :class:`~repro.obs.ring.Ring`, whose overwrites are
    :attr:`dropped` and exported as
    ``repro_service_events_dropped_total``).

    Thread-safety: the service emits from executor threads (queue and
    store calls are offloaded so their file I/O stays off the event
    loop), so all log state is serialized on one reentrant lock.
    Subscribers are called *outside* the lock — a subscriber that
    re-enters the log or wakes the loop must not be able to deadlock
    against a concurrent emitter.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
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
        self._lock = threading.RLock()
        self.records: Ring[dict[str, Any]] = Ring(MAX_RECORDS)
        self._by_job: dict[str, list[dict[str, Any]]] = defaultdict(list)
        self._subscribers: list[Callable[[dict[str, Any]], None]] = []

    @property
    def dropped(self) -> int:
        """Records the global ring overwrote."""
        with self._lock:
            return self.records.dropped

    def emit(
        self, name: str, jobs: Iterable[str] = (), /, **fields: Any,
    ) -> dict[str, Any]:
        """Record one event and append it to the views of ``jobs``;
        raises on undeclared names/missing or undeclared fields.

        ``jobs`` is positional-only, so every keyword is payload.
        """
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
            for job in jobs:
                self._by_job[job].append(record)
            self._counter.labels(event=name).inc()
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(record)
        return record

    def prune_job(self, job_id: str) -> None:
        """Drop one job's per-job view (the shared records stay in
        the global ring until they age out)."""
        with self._lock:
            self._by_job.pop(job_id, None)

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
            return self.records.tail(n)

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
        """The retained log (newest :data:`MAX_RECORDS` records), one
        JSON object per line (the CI artifact)."""
        import json

        with self._lock:
            return "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in self.records)
