"""Hand-rolled asyncio HTTP/JSON API over the queue + worker shard.

No third-party web framework: a small HTTP/1.1 request parser on
:func:`asyncio.start_server` (the container has stdlib only, and the
service needs fewer than ten routes).  Every response closes the
connection (``Connection: close``) — the client is a CLI, not a
browser pool, and close-delimited bodies keep the event stream
implementation trivial.

Routes
------

``POST /jobs``
    Body: a job spec (see :func:`repro.service.queue.validate_spec`).
    202 with ``{"job", "cells", "status"}``; 400 on a bad spec.
``GET /jobs/{id}``
    Job record + per-cell states; 404 for unknown ids, saying
    ``expired`` for an id whose record retention dropped.
``POST /jobs/{id}/cancel``
    Cancel; queued exclusive cells drain, the job completes with
    ``reason=cancelled``.
``GET /jobs/{id}/events``
    NDJSON stream of the job's named events, live until the job
    reaches a terminal state (then the stream ends).  Replays events
    emitted before the request attached, so a client can always
    follow a job from the beginning.
``GET /jobs/{id}/trace``
    The job's distributed trace as span-event JSONL (service spans
    plus the worker-side coherence spans, in one row format and one
    id scheme) — feed it to ``repro-sim report [--chrome]``.  404
    until the trace exists.
``GET /results/{fingerprint}``
    The stored cell: ``{fingerprint, benchmark, technique, seed, scale,
    summary}``; 404 if the store holds no whole file for it.
``GET /metrics``
    Prometheus text exposition of the service registry (includes
    ``repro_service_events_total{event=...}``, the sampled
    ``repro_service_queue_depth{state=...}`` gauges and every ring's
    ``repro_ring_dropped_total{ring=...}``).
``GET /telemetry``
    The time-series vitals ring (:data:`SAMPLE_COLUMNS`) plus an
    event tail and trace-store occupancy — what ``repro-sim service
    top`` renders (:meth:`Service.telemetry_document`).
``GET /healthz``
    Liveness: ``{"ok": true}``.

A request whose ``Content-Length`` is not a decimal integer answers
400, and one whose length exceeds :data:`MAX_BODY` answers 413 without
its body being read.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from pathlib import Path
from typing import Any

from repro.experiments.store import atomic_write
from repro.obs.jobtrace import JobTraceStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.ring import Ring

from .events import EventLog
from .queue import (
    CELL_STATES,
    JOB_STATUSES,
    JOB_TERMINAL,
    JobNotFound,
    JobQueue,
    SpecError,
)
from .workers import ResultStore, WorkerShard

log = logging.getLogger("repro.service")

#: Cap on request bodies (a job spec is tiny; anything bigger is abuse).
MAX_BODY = 1 << 20

#: How many newest EventLog records ``GET /telemetry`` tails.
TELEMETRY_EVENT_TAIL = 50

#: How many newest EventLog records the ``flight_path`` file tails.
FLIGHT_EVENT_TAIL = 2048

#: Telemetry samples retained; at the default 1 s cadence this is
#: ~12 minutes.
TELEMETRY_SAMPLES = 720

#: The numeric columns every telemetry sample carries (the
#: time-series schema; see :meth:`Service._sample_once`).
SAMPLE_COLUMNS = (
    "queued",            # cells waiting in the queue
    "leased",            # cells currently under a worker lease
    "jobs_active",       # jobs not yet terminal
    "jobs_done",         # held jobs completed with reason=done
    "jobs_failed",       # held jobs completed with reason=failed
    "jobs_cancelled",    # held jobs completed with reason=cancelled
    "workers",           # worker slots in the shard
    "busy",              # workers currently simulating
    "utilization",       # busy / workers
    "leases",            # cumulative leases granted
    "lease_wait_avg",    # mean queued->leased latency, seconds
    "lease_wait_max",    # worst queued->leased latency, seconds
    "cache_hit_ratio",   # cache_hits / (cache_hits + started)
    "event_records",     # EventLog ring occupancy
    "event_dropped",     # cumulative records the ring overwrote
)


class _Refused(Exception):
    """A request refused before routing: its HTTP status and reason."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Service:
    """The assembled service: queue, store, shard, event log, HTTP.

    Observability plumbing assembled here:

    * one shared :class:`JobTraceStore` — the queue mints ``job`` /
      ``cell.lease`` spans into it from executor threads, the shard
      mints ``cell.run`` / ``cell.cache_hit`` spans and appends the
      worker-side coherence span rows; ``GET /jobs/{id}/trace``
      serves it;
    * a :class:`~repro.obs.ring.Ring` of telemetry samples fed by a
      background sampler task (:meth:`_telemetry_loop`) that also
      updates the sampled Prometheus gauges; ``GET /telemetry``
      serves it as :meth:`telemetry_document`;
    * optionally (``flight_path``) the same document, with a longer
      event tail, rewritten atomically every sampler tick and once
      more at :meth:`stop`, so a killed server leaves a parseable
      postmortem on disk;
    * ``repro_ring_dropped_total{ring=...}`` on ``/metrics``: every
      ring's overwrite count, read from the rings at export.
    """

    def __init__(
        self,
        root: str | Path,
        workers: int = 1,
        executor=None,
        metrics: MetricsRegistry | None = None,
        flight_path: str | Path | None = None,
        telemetry_interval: float = 1.0,
    ):
        self.root = Path(root)
        self.metrics = metrics or MetricsRegistry()
        self.traces = JobTraceStore()
        self.telemetry: Ring[dict] = Ring(TELEMETRY_SAMPLES)
        self.telemetry_interval = telemetry_interval
        self.flight_path = None if flight_path is None else Path(flight_path)
        self._flight_lock = threading.Lock()
        self.events = EventLog(metrics=self.metrics)
        self.queue = JobQueue(
            self.root / "queue", events=self.events,
            traces=self.traces, metrics=self.metrics,
        )
        self.store = ResultStore(self.root / "results")
        self.shard = WorkerShard(
            self.queue, self.store, self.events,
            workers=workers, executor=executor,
        )
        # Sampled gauges (set by _sample_once; declared here so the
        # families exist — with help text — before the first tick).
        self._depth_gauge = self.metrics.gauge(
            "repro_service_queue_depth", "cells by queue state",
            labels=("state",),
        )
        self._jobs_gauge = self.metrics.gauge(
            "repro_service_jobs", "jobs by status (active, the "
            "terminal reason, or expired)", labels=("status",),
        )
        self._util_gauge = self.metrics.gauge(
            "repro_service_worker_utilization",
            "busy workers / worker slots",
        )
        self._busy_gauge = self.metrics.gauge(
            "repro_service_workers_busy", "workers currently simulating",
        )
        self._ring_gauge = self.metrics.gauge(
            "repro_service_event_ring_records", "EventLog ring occupancy",
        )
        self._cache_gauge = self.metrics.gauge(
            "repro_service_cache_hit_ratio",
            "cache hits / (cache hits + started)",
        )
        rings = self.metrics.counter(
            "repro_ring_dropped_total",
            "rows each bounded observability ring overwrote",
            labels=("ring",),
        )
        rings.view(lambda: self.events.dropped, ring="events")
        rings.view(lambda: self.traces.stats()["dropped"], ring="traces")
        rings.view(lambda: self.telemetry.dropped, ring="telemetry")
        self._server: asyncio.AbstractServer | None = None
        self._wake = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._telemetry_task: asyncio.Task | None = None
        self.events.subscribe(lambda _record: self._wake_streams())

    def _wake_streams(self) -> None:
        """Wake every pending event stream after an emit.

        Emits now happen on executor threads (queue/store calls are
        offloaded), and ``asyncio.Event.set`` is not thread-safe —
        marshal onto the captured loop.  Before :meth:`start` there is
        no loop (synchronous state-machine tests): set directly.
        """
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._wake.set)
        else:
            self._wake.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the shard, the telemetry sampler, and the listener."""
        self._loop = asyncio.get_running_loop()
        await self.shard.start()
        if self.telemetry_interval > 0:
            self._telemetry_task = asyncio.create_task(
                self._telemetry_loop(), name="repro-telemetry",
            )
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
        )
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        log.info("service listening on http://%s:%s", bound_host, bound_port)
        return bound_host, bound_port

    async def stop(self) -> None:
        """Stop accepting, stop the shard, flush everything."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        await self.shard.stop()
        if self.flight_path is not None:
            # One last sample, which rewrites the flight file, so the
            # file on disk reflects the final state (file I/O off the
            # loop).
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._sample_once)

    # ------------------------------------------------------------------
    # Telemetry sampling
    # ------------------------------------------------------------------

    def telemetry_document(self, tail: int) -> dict[str, Any]:
        """The schema-1 telemetry document with the newest ``tail``
        event records: what ``GET /telemetry`` serves and the
        ``flight_path`` file holds.

        Everything here is lock-serialized in-memory state, no file
        I/O, so the HTTP handler builds it on the loop.
        """
        samples = list(self.telemetry)
        return {
            "schema": 1,
            "capacity": self.telemetry.capacity,
            "recorded": len(samples) + self.telemetry.dropped,
            "columns": list(SAMPLE_COLUMNS),
            "latest": samples[-1] if samples else None,
            "samples": samples,
            "events": self.events.tail(tail),
            "event_ring": self.events.occupancy(),
            "traces": self.traces.stats(),
        }

    def _sample_once(self) -> dict:
        """Take one vitals sample (runs on an executor thread).

        Reads go through the locked accessors (``depth_counts`` /
        ``lease_stats`` / ``occupancy``); ``shard.busy`` and
        ``shard.workers`` are loop-thread-written ints, so a stale
        read costs one tick of accuracy, never a torn value.  Under
        ``flight_path`` the sample then rewrites the flight file.
        """
        depth = self.queue.depth_counts()
        lease = self.queue.lease_stats()
        ring = self.events.occupancy()
        cells = depth["cells"]
        jobs = depth["jobs"]
        workers = self.shard.workers
        busy = self.shard.busy
        hits = self.metrics.get(
            "repro_service_events_total", event="cell.cache_hit",
        )
        started = self.metrics.get(
            "repro_service_events_total", event="cell.started",
        )
        sample = {
            "ts": self.queue.clock(),
            "queued": cells.get("queued", 0),
            "leased": cells.get("leased", 0),
            "jobs_active": jobs.get("active", 0),
            "jobs_done": jobs.get("done", 0),
            "jobs_failed": jobs.get("failed", 0),
            "jobs_cancelled": jobs.get("cancelled", 0),
            "workers": workers,
            "busy": busy,
            "utilization": busy / workers if workers else 0.0,
            "leases": lease["count"],
            "lease_wait_avg": (
                lease["wait_total"] / lease["count"] if lease["count"] else 0.0
            ),
            "lease_wait_max": lease["wait_max"],
            "cache_hit_ratio": (
                hits / (hits + started) if hits + started else 0.0
            ),
            "event_records": ring["records"],
            "event_dropped": ring["dropped"],
        }
        # Every state on every sample, so a state that emptied reads 0.
        for state in CELL_STATES:
            self._depth_gauge.labels(state=state).set(cells.get(state, 0))
        for status in JOB_STATUSES:
            self._jobs_gauge.labels(status=status).set(jobs.get(status, 0))
        self._util_gauge.labels().set(sample["utilization"])
        self._busy_gauge.labels().set(busy)
        self._ring_gauge.labels().set(ring["records"])
        self._cache_gauge.labels().set(sample["cache_hit_ratio"])
        self.telemetry.append(sample)
        if self.flight_path is not None:
            # Built and written under one lock, so the last write holds
            # every sample taken before it: a tick still running when
            # stop() samples cannot replace the final file with an
            # older one.
            with self._flight_lock:
                atomic_write(
                    self.flight_path,
                    json.dumps(self.telemetry_document(FLIGHT_EVENT_TAIL)),
                )
        return sample

    async def _telemetry_loop(self) -> None:
        """Sample vitals every ``telemetry_interval`` seconds."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                await loop.run_in_executor(None, self._sample_once)
            except Exception:  # noqa: BLE001 - keep sampling through faults
                log.exception("telemetry sample failed")
            await asyncio.sleep(self.telemetry_interval)

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``repro-sim serve`` main loop)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        """Parse one request, route it, always close the connection."""
        try:
            try:
                request = await self._read_request(reader)
            except _Refused as exc:
                await self._respond(writer, exc.status, {"error": str(exc)})
            else:
                if request is not None:
                    await self._route(request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - one bad request, not the server
            log.warning("request handling failed: %s", exc)
            try:
                await self._respond(writer, 500, {"error": str(exc)})
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> dict | None:
        """Parse the request line, headers, and body (or None on EOF).

        Raises :class:`_Refused` (400) for a ``Content-Length`` that is
        not a decimal integer and (413) for one over :data:`MAX_BODY`,
        whose body is then never read.
        """
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin1").split()
        except ValueError:
            return {"method": "BAD", "path": "/", "body": b""}
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = headers.get("content-length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            raise _Refused(400, f"bad Content-Length: {raw!r}")
        length = int(raw)
        if length > MAX_BODY:
            raise _Refused(
                413, f"body of {length} bytes exceeds the {MAX_BODY}-byte cap",
            )
        body = await reader.readexactly(length)
        return {"method": method.upper(), "path": target, "body": body}

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, doc: Any,
        content_type: str = "application/json",
    ) -> None:
        """Write one close-delimited response with a JSON/text body."""
        if isinstance(doc, (dict, list)):
            payload = (json.dumps(doc, sort_keys=True) + "\n").encode()
        else:
            payload = str(doc).encode()
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  413: "Content Too Large",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self, request: dict, writer: asyncio.StreamWriter,
    ) -> None:
        """Dispatch one parsed request to its handler."""
        method, path = request["method"], request["path"].rstrip("/")
        parts = [p for p in path.split("/") if p]
        if method == "POST" and parts == ["jobs"]:
            await self._post_job(request["body"], writer)
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            await self._get_job(parts[1], writer)
        elif (method == "POST" and len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "cancel"):
            await self._cancel_job(parts[1], writer)
        elif (method == "GET" and len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "events"):
            await self._stream_events(parts[1], writer)
        elif (method == "GET" and len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "trace"):
            await self._get_trace(parts[1], writer)
        elif method == "GET" and len(parts) == 2 and parts[0] == "results":
            await self._get_result(parts[1], writer)
        elif method == "GET" and parts == ["telemetry"]:
            await self._respond(
                writer, 200, self.telemetry_document(TELEMETRY_EVENT_TAIL),
            )
        elif method == "GET" and parts == ["metrics"]:
            await self._respond(
                writer, 200, self.metrics.to_prometheus(),
                content_type="text/plain; version=0.0.4",
            )
        elif method == "GET" and parts == ["healthz"]:
            await self._respond(writer, 200, {"ok": True})
        else:
            await self._respond(
                writer, 404 if method in ("GET", "POST") else 405,
                {"error": f"no route for {method} {path or '/'}"},
            )

    async def _post_job(
        self, body: bytes, writer: asyncio.StreamWriter,
    ) -> None:
        """``POST /jobs``: validate, enqueue, 202."""
        try:
            spec = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(writer, 400, {"error": f"bad JSON: {exc}"})
            return
        loop = asyncio.get_running_loop()
        try:
            # submit() appends to the queue journal under the queue
            # lock; off the loop so a slow disk cannot stall requests.
            job = await loop.run_in_executor(None, self.queue.submit, spec)
        except SpecError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        await self._respond(writer, 202, {
            "job": job["id"], "cells": job["cells"], "status": job["status"],
            "trace": job.get("trace"),
        })

    async def _get_job(
        self, job_id: str, writer: asyncio.StreamWriter,
    ) -> None:
        """``GET /jobs/{id}``: the record + per-cell states."""
        loop = asyncio.get_running_loop()
        try:
            doc = await loop.run_in_executor(
                None, self.queue.job_status, job_id,
            )
        except JobNotFound as exc:
            await self._respond(writer, 404, {"error": str(exc)})
            return
        await self._respond(writer, 200, doc)

    async def _cancel_job(
        self, job_id: str, writer: asyncio.StreamWriter,
    ) -> None:
        """``POST /jobs/{id}/cancel``."""
        loop = asyncio.get_running_loop()
        try:
            job = await loop.run_in_executor(None, self.queue.cancel, job_id)
        except JobNotFound as exc:
            await self._respond(writer, 404, {"error": str(exc)})
            return
        await self._respond(writer, 200, {
            "job": job["id"], "status": job["status"],
        })

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter,
    ) -> None:
        """``GET /jobs/{id}/events``: replay + follow as NDJSON.

        Queue state is read through the locked accessors — the
        ``jobs`` dict is mutated by executor threads under the queue
        lock, so a direct read here would race them (simlint SL202).
        Each pass reads the status *before* it snapshots the records:
        the queue sets a terminal status and emits ``job.completed``
        under one lock hold, so a snapshot taken after a terminal
        status holds that event, and the stream never ends without it.
        An expired job is over: the queue dropped its view with its
        record, so its stream replays nothing and ends.
        """
        loop = asyncio.get_running_loop()
        try:
            status = await loop.run_in_executor(
                None, self.queue.status, job_id,
            )
        except JobNotFound as exc:
            await self._respond(writer, 404, {"error": str(exc)})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            records = self.events.for_job(job_id)
            for record in records[sent:]:
                writer.write(
                    (json.dumps(record, sort_keys=True) + "\n").encode()
                )
            sent = len(records)
            await writer.drain()
            if status in JOB_TERMINAL or status == "expired":
                break
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=1.0)
            except asyncio.TimeoutError:
                pass  # periodic re-check even with no event traffic
            status = await loop.run_in_executor(
                None, self.queue.status, job_id,
            )

    async def _get_trace(
        self, job_id: str, writer: asyncio.StreamWriter,
    ) -> None:
        """``GET /jobs/{id}/trace``: the job's span-event JSONL.

        The trace id comes from the locked queue accessor; the trace
        store itself is lock-serialized in-memory state (no file
        I/O), so it is read directly like the event log.
        """
        loop = asyncio.get_running_loop()
        try:
            trace = await loop.run_in_executor(
                None, self.queue.job_trace, job_id,
            )
        except JobNotFound as exc:
            await self._respond(writer, 404, {"error": str(exc)})
            return
        if trace is None or not self.traces.has(trace):
            await self._respond(
                writer, 404, {"error": f"no trace for job {job_id}"},
            )
            return
        await self._respond(
            writer, 200, self.traces.to_jsonl(trace),
            content_type="application/x-ndjson",
        )

    async def _get_result(
        self, fingerprint: str, writer: asyncio.StreamWriter,
    ) -> None:
        """``GET /results/{fingerprint}``: the stored cell document."""
        loop = asyncio.get_running_loop()
        doc = await loop.run_in_executor(None, self.store.get, fingerprint)
        if doc is None:
            await self._respond(
                writer, 404, {"error": f"no result for {fingerprint}"},
            )
            return
        await self._respond(writer, 200, {"fingerprint": fingerprint, **doc})
