"""Per-job distributed trace store for the simulation service.

The service keeps one bounded span buffer *per job trace* rather than
one global ring: a large cell's thousands of coherence spans must not
evict another job's causal tree.  Each trace is a
:class:`~repro.obs.ring.Ring` of span-event rows, exported in the
tracer's file format, so ``repro-sim report`` (and its ``--chrome``
export) consume a job trace unchanged.  Service spans are minted here
(``job``, ``cell.lease``, ``cell.run``, ``cell.cache_hit`` — see
:data:`repro.obs.spans.SERVICE_SPAN_NAMES`); a worker's spans arrive
as the rows its tracer wrote under the job's trace context
(:meth:`JobTraceStore.ingest`), already numbered inside their
``cell.run`` span's id block and parented under it.

Thread-safety: span ids come from one ``itertools.count`` and every
buffer mutation happens under one reentrant lock, because the queue
mints spans from executor threads while the worker shard mints them
on the event loop.  Two clock domains share a trace: service spans
are stamped in perf-counter microseconds, worker spans keep their
simulated-cycle timestamps and carry ``clock: "cycles"`` so viewers
and reports can tell them apart.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from itertools import count
from typing import Any, Iterable

from repro.obs.ring import Ring
from repro.obs.tracer import trace_jsonl

#: Traces retained (whole oldest traces are evicted beyond this).
MAX_TRACES = 64

#: Span-event rows retained per trace; the ring overwrites the oldest
#: beyond this and counts them.
MAX_EVENTS = 50_000


def _microseconds() -> int:
    """Default timestamp: monotonic perf-counter microseconds."""
    return int(time.perf_counter() * 1e6)


class JobTraceStore:
    """Bounded, thread-safe store of span events keyed by trace id."""

    def __init__(self, clock=_microseconds):
        self.clock = clock
        self._lock = threading.RLock()
        self._traces: OrderedDict[str, Ring[dict[str, Any]]] = OrderedDict()
        self._span_ids = count(1)
        # Whole traces evicted, and the rows those traces had dropped,
        # so the store's drop total only ever rises.
        self._evicted = 0
        self._evicted_dropped = 0

    # -- span minting (service side) -------------------------------------

    def span_begin(
        self,
        trace: str,
        name: str,
        parent: int | None = None,
        ts: int | None = None,
        **fields: Any,
    ) -> int:
        """Open a service span on ``trace``; returns its id."""
        sid = next(self._span_ids)
        row: dict[str, Any] = {
            "ts": ts if ts is not None else self.clock(),
            "kind": "span.begin",
            "span": sid,
            "name": name,
            "trace": trace,
        }
        if parent is not None:
            row["parent"] = parent
        row.update(fields)
        with self._lock:
            self._ring(trace).append(row)
        return sid

    def span_end(
        self,
        trace: str,
        span: int | None,
        ts: int | None = None,
        **fields: Any,
    ) -> None:
        """Close a span; ``None`` (span never opened) is ignored."""
        if span is None:
            return
        row: dict[str, Any] = {
            "ts": ts if ts is not None else self.clock(),
            "kind": "span.end",
            "span": span,
        }
        row.update(fields)
        with self._lock:
            self._ring(trace).append(row)

    def ingest(
        self, trace: str, rows: Iterable[dict[str, Any]], dropped: int = 0,
    ) -> None:
        """Append a worker's span-event rows to ``trace`` as they are.

        ``dropped`` is the number of rows the worker's own trace ring
        overwrote; it counts in the trace's :meth:`dropped`.
        """
        with self._lock:
            self._ring(trace).extend(rows, dropped)

    # -- read side -------------------------------------------------------

    def has(self, trace: str) -> bool:
        """True if ``trace`` still has a buffer (not yet evicted)."""
        with self._lock:
            return trace in self._traces

    def traces(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def events(self, trace: str) -> list[dict[str, Any]]:
        """The trace's span-event rows in emission order (copies)."""
        with self._lock:
            ring = self._traces.get(trace)
            return [dict(row) for row in ring] if ring is not None else []

    def dropped(self, trace: str) -> int:
        """Rows lost to the per-trace cap plus worker-side overwrites."""
        with self._lock:
            ring = self._traces.get(trace)
            return ring.dropped if ring is not None else 0

    def to_jsonl(self, trace: str) -> str:
        """One trace's file (:func:`~repro.obs.tracer.trace_jsonl`):
        its rows, then the trailer ``{"meta": "job-trace", "trace",
        "events", "dropped"}``."""
        with self._lock:
            ring = self._traces.get(trace)
            rows = list(ring) if ring is not None else []
            dropped = ring.dropped if ring is not None else 0
        return trace_jsonl(rows, "job-trace", dropped, trace=trace)

    def stats(self) -> dict[str, Any]:
        """Occupancy summary for telemetry sampling.

        ``dropped`` counts every row lost since the store was made,
        evicted traces' included; ``evicted`` counts whole traces
        evicted beyond :data:`MAX_TRACES`.
        """
        with self._lock:
            rings = list(self._traces.values())
            return {
                "traces": len(rings),
                "events": sum(len(r) for r in rings),
                "dropped": self._evicted_dropped + sum(r.dropped for r in rings),
                "evicted": self._evicted,
            }

    # -- internals -------------------------------------------------------

    def _ring(self, trace: str) -> Ring[dict[str, Any]]:
        """``trace``'s ring, made (evicting the oldest trace) if new;
        callers hold the lock."""
        ring = self._traces.get(trace)
        if ring is None:
            ring = self._traces[trace] = Ring(MAX_EVENTS)
            while len(self._traces) > MAX_TRACES:
                _, old = self._traces.popitem(last=False)
                self._evicted += 1
                self._evicted_dropped += old.dropped
        return ring
