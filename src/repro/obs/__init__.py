"""Simulation observability: tracing, metrics, profiling, and reports.

* :class:`~repro.obs.tracer.Tracer` — typed structured event tracing
  (JSONL / Chrome trace-event output, per-kind/node/address filtering,
  bounded ring-buffer mode).  :data:`~repro.obs.tracer.NULL_TRACER` is
  the zero-overhead default every component holds when tracing is off.
* :class:`~repro.obs.ring.Ring` — the one bounded buffer behind every
  observability ring (tracer, service event log, job traces,
  telemetry, flight recorder); it counts every row it overwrites.
* :class:`~repro.obs.metrics.MetricsRegistry` — named, labeled metric
  series (counters, gauges, histograms); exports JSON and Prometheus
  text.  :func:`~repro.obs.metrics.run_metrics` builds one from a
  finished run's statistics through the declared
  :data:`~repro.obs.metrics.RUN_METRICS` table (``RunResult.metrics``).
* :class:`~repro.obs.progress.MatrixProgress` /
  :class:`~repro.obs.progress.RunManifest` — parallel-run telemetry:
  live per-cell progress and the persisted per-cell provenance record.
* :class:`~repro.obs.profiler.SimProfiler` — per-component event counts
  and wall-time attribution from the scheduler;
  :class:`~repro.obs.profiler.Heartbeat` — periodic progress logging.
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
from repro.obs.profiler import Heartbeat, SimProfiler
from repro.obs.progress import CellUpdate, MatrixProgress, RunManifest
from repro.obs.provenance import (
    ProvenanceReport,
    analyze_events,
    reconcile,
    render_provenance,
)
from repro.obs.report import (
    TraceLoad,
    load_trace,
    read_trace,
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
    "CellUpdate",
    "MatrixProgress",
    "RunManifest",
    "SimProfiler",
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
    "read_trace",
    "render_report",
    "summarize_trace",
]
