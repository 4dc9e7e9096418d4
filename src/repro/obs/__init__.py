"""Simulation observability: tracing, metrics, progress, and reports.

* :class:`~repro.obs.tracer.Tracer` — typed structured event tracing
  (span-event JSONL files ending in one trailer row, per-kind/node/
  address filtering, bounded ring-buffer mode).
  :data:`~repro.obs.tracer.NULL_TRACER` is the zero-overhead default
  every component holds when tracing is off.
* :class:`~repro.obs.ring.Ring` — the one bounded buffer behind every
  observability ring (tracer, service event log, job traces,
  telemetry samples); it counts every row it overwrites.
* :class:`~repro.obs.metrics.MetricsRegistry` — named, labeled metric
  series (counters, gauges, histograms); exports JSON and Prometheus
  text.  :func:`~repro.obs.metrics.run_metrics` builds one from a
  finished run's statistics through the declared
  :data:`~repro.obs.metrics.RUN_METRICS` table (``RunResult.metrics``).
* :class:`~repro.obs.progress.Heartbeat` — periodic progress logging
  of a run; :class:`~repro.obs.progress.RunManifest` — sweep
  telemetry: the persisted per-cell provenance record of a matrix
  sweep.  ``repro-sim run --profile`` is stdlib :mod:`cProfile`.
* :func:`~repro.obs.report.load_trace` /
  :func:`~repro.obs.report.summarize_trace` — load (tolerantly) and
  summarize a trace file (the ``repro-sim report`` command).
* :func:`~repro.obs.spans.collect_spans` — fold a trace's
  ``span.begin`` / ``span.end`` events back into causal
  :class:`~repro.obs.spans.SpanRecord` chains.
* :func:`~repro.obs.provenance.analyze_events` — attribute every
  communication miss to a temporal-silence provenance class and
  reconcile the totals against the run's metrics (the
  ``repro-sim explain`` command).
"""

from repro.obs.metrics import (
    RUN_METRICS,
    MetricFamily,
    MetricSpec,
    MetricsRegistry,
    run_metrics,
)
from repro.obs.progress import Heartbeat, RunManifest
from repro.obs.provenance import (
    ProvenanceReport,
    analyze_events,
    reconcile,
    render_provenance,
)
from repro.obs.report import (
    TraceLoad,
    load_trace,
    render_report,
    summarize_trace,
)
from repro.obs.ring import Ring
from repro.obs.spans import SpanRecord, SpanStream, collect_spans
from repro.obs.tracer import (
    EVENT_KINDS,
    NULL_TRACER,
    TraceEvent,
    TraceFilter,
    Tracer,
)

__all__ = [
    "EVENT_KINDS",
    "NULL_TRACER",
    "RUN_METRICS",
    "TraceEvent",
    "TraceFilter",
    "Tracer",
    "Ring",
    "MetricFamily",
    "MetricSpec",
    "MetricsRegistry",
    "run_metrics",
    "RunManifest",
    "Heartbeat",
    "SpanRecord",
    "SpanStream",
    "collect_spans",
    "ProvenanceReport",
    "analyze_events",
    "reconcile",
    "render_provenance",
    "TraceLoad",
    "load_trace",
    "render_report",
    "summarize_trace",
]
