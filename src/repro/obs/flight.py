"""Service flight recorder: a persisted ring for crash postmortems.

The EventLog and telemetry sampler are in-memory; a killed server
takes them with it.  The flight recorder buffers the last-N service
events, telemetry samples, and free-form notes (e.g. the EventLog's
``events.dropped`` overflow marker) and periodically persists them as
one JSON document through
:func:`~repro.experiments.store.atomic_write`, so the file on disk is
always a complete, parseable snapshot — never a torn write.  After
a crash, ``repro-sim service postmortem PATH`` renders the document:
the last telemetry sample, the notes, each job's last known state
reconstructed from its events, and the newest event tail.

Buffering is deliberately split from flushing: ``record_event`` runs
inside EventLog subscriber callbacks (sometimes on the event loop),
so it only appends under the lock; :meth:`FlightRecorder.flush` does
the file write and is called from executor threads — the service's
telemetry loop offloads it every tick, and ``Service.stop`` forces a
final flush.  ``flush`` also self-debounces (``min_interval``) so a
caller may invoke it optimistically without hammering the disk.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from repro.experiments.store import atomic_write

#: On-disk document format version.
FLIGHT_FORMAT = 1

DEFAULT_EVENTS = 2048
DEFAULT_SAMPLES = 256
DEFAULT_NOTES = 64

#: Terminal job reasons (mirrors the job.completed event contract).
_TERMINAL = ("done", "failed", "cancelled")


class FlightRecorder:
    """Bounded in-memory ring persisted atomically to one JSON file."""

    def __init__(
        self,
        path,
        events: int = DEFAULT_EVENTS,
        samples: int = DEFAULT_SAMPLES,
        notes: int = DEFAULT_NOTES,
        min_interval: float = 0.25,
        clock=time.perf_counter,
    ):
        self.path = Path(path)
        self.clock = clock
        self.min_interval = min_interval
        self._lock = threading.RLock()
        self._events: deque[dict[str, Any]] = deque(maxlen=events)
        self._samples: deque[dict[str, Any]] = deque(maxlen=samples)
        self._notes: deque[dict[str, Any]] = deque(maxlen=notes)
        self._recorded = 0
        self._dirty = False
        self._last_flush = None

    # -- recording (cheap, lock-only; safe from subscriber callbacks) ----

    def record_event(self, record: dict[str, Any]) -> None:
        """Buffer one EventLog record (an EventLog subscriber)."""
        with self._lock:
            self._events.append(dict(record))
            self._recorded += 1
            self._dirty = True

    def record_sample(self, sample: dict[str, Any]) -> None:
        """Buffer one telemetry sample row."""
        with self._lock:
            self._samples.append(dict(sample))
            self._dirty = True

    def note(self, message: str, **fields: Any) -> None:
        """Buffer a free-form annotation (overflow markers, shutdown)."""
        entry = {"ts": self.clock(), "note": message}
        entry.update(fields)
        with self._lock:
            self._notes.append(entry)
            self._dirty = True

    # -- persistence (file I/O; call from executor threads only) ---------

    def snapshot(self) -> dict[str, Any]:
        """The current document (what :meth:`flush` writes)."""
        with self._lock:
            return {
                "format": FLIGHT_FORMAT,
                "recorded": self._recorded,
                "events": [dict(r) for r in self._events],
                "samples": [dict(r) for r in self._samples],
                "notes": [dict(r) for r in self._notes],
            }

    def flush(self, force: bool = False) -> bool:
        """Atomically persist the ring if dirty (debounced); True if written."""
        with self._lock:
            if not self._dirty and not force:
                return False
            now = self.clock()
            if (
                not force
                and self._last_flush is not None
                and now - self._last_flush < self.min_interval
            ):
                return False
            doc = self.snapshot()
            self._dirty = False
            self._last_flush = now
        atomic_write(self.path, json.dumps(doc, indent=1))
        return True

    def close(self) -> None:
        """Force a final flush (service shutdown path)."""
        self.flush(force=True)


def load_flight(path) -> dict[str, Any]:
    """Read a flight-recorder file, validating the format stamp."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != FLIGHT_FORMAT:
        raise ValueError(f"{path}: not a flight-recorder file (format 1)")
    return doc


def _job_states(events: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Reconstruct each job's last known state from its buffered events."""
    jobs: dict[str, dict[str, Any]] = {}
    for record in events:
        job = record.get("job")
        if job is None:
            continue
        state = jobs.setdefault(job, {"state": "in flight", "last": None})
        state["last"] = record
        if record.get("event") == "job.completed":
            state["state"] = record.get("reason", "completed")
    return jobs


def render_postmortem(doc: dict[str, Any], tail: int = 15) -> str:
    """Render a flight-recorder document for the terminal."""
    events = doc.get("events", [])
    samples = doc.get("samples", [])
    notes = doc.get("notes", [])
    lines = [
        "flight recorder postmortem (format"
        f" {doc.get('format')}, {doc.get('recorded', len(events))} events"
        f" recorded, {len(events)} buffered)",
    ]
    if samples:
        last = samples[-1]
        vitals = " ".join(
            f"{key}={last[key]}"
            for key in (
                "queued", "leased", "busy", "workers", "utilization",
                "lease_wait_avg", "cache_hit_ratio", "event_dropped",
            )
            if key in last
        )
        lines.append(f"last sample : {vitals}")
    else:
        lines.append("last sample : (none recorded)")
    if notes:
        lines.append("")
        lines.append("notes:")
        for entry in notes:
            extra = " ".join(
                f"{k}={v}" for k, v in entry.items() if k not in ("ts", "note")
            )
            lines.append(f"  {entry.get('note')}" + (f" ({extra})" if extra else ""))
    jobs = _job_states(events)
    if jobs:
        lines.append("")
        lines.append("jobs (last known state):")
        for job, state in jobs.items():
            last = state["last"] or {}
            marker = state["state"]
            flag = "" if marker in _TERMINAL else "  <- interrupted"
            lines.append(
                f"  {job:<12s} {marker:<10s} last event"
                f" {last.get('event', '?')} (seq {last.get('seq', '?')}){flag}"
            )
    if events:
        lines.append("")
        lines.append(f"newest {min(tail, len(events))} events:")
        for record in events[-tail:]:
            detail = " ".join(
                f"{k}={v}"
                for k, v in record.items()
                if k not in ("seq", "event")
            )
            lines.append(
                f"  seq {record.get('seq', '?'):>6} {record.get('event', '?'):<18s}"
                f" {detail}"
            )
    return "\n".join(lines)
