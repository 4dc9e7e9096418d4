"""``repro-sim service top`` and ``repro-sim service postmortem``.

``top`` renders the ``GET /telemetry`` document — the newest vitals
row, each bounded ring's drop count, a sparkline per headline series,
the trace-store / event-ring occupancy, and the newest service events
— then sleeps and refreshes.  ``postmortem`` renders the same
document as ``serve --flight PATH`` left it on disk, plus each job's
last known state rebuilt from the event tail.  The renderers
(:func:`render_top`, :func:`render_postmortem`) are pure document ->
string functions so tests can drive them with canned telemetry; only
:func:`run_top` touches the network and the terminal.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from .queue import JOB_TERMINAL

#: Eight-level unicode sparkline ramp.
_SPARK = "▁▂▃▄▅▆▇█"

#: (column, short label) pairs rendered as sparklines, in order.
_SPARK_COLUMNS = (
    ("queued", "queued"),
    ("leased", "leased"),
    ("utilization", "util"),
    ("lease_wait_avg", "wait"),
    ("cache_hit_ratio", "cache"),
    ("event_records", "ring"),
)

#: ANSI clear-screen + home (what the refresh loop prefixes).
CLEAR = "\x1b[2J\x1b[H"


def _sparkline(values: list[float], width: int = 32) -> str:
    """Render the newest ``width`` values as a unicode sparkline."""
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(int((v - low) / span * len(_SPARK)), len(_SPARK) - 1)]
        for v in values
    )


def _fmt(value: Any) -> str:
    """Compact numeric formatting for the vitals line."""
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def render_top(doc: dict[str, Any], width: int = 78,
               events: int = 8) -> str:
    """Render one ``GET /telemetry`` document for the terminal."""
    latest = doc.get("latest") or {}
    samples = doc.get("samples") or []
    ring = doc.get("event_ring") or {}
    traces = doc.get("traces") or {}
    recorded = doc.get("recorded", len(samples))
    lines = [
        f"service telemetry — {recorded} samples recorded, "
        f"{len(samples)} retained",
        "-" * width,
    ]
    if latest:
        lines.append(
            "queue   : "
            f"queued={_fmt(latest.get('queued', 0))} "
            f"leased={_fmt(latest.get('leased', 0))} "
            f"jobs active={_fmt(latest.get('jobs_active', 0))} "
            f"done={_fmt(latest.get('jobs_done', 0))} "
            f"failed={_fmt(latest.get('jobs_failed', 0))} "
            f"cancelled={_fmt(latest.get('jobs_cancelled', 0))}"
        )
        lines.append(
            "workers : "
            f"busy={_fmt(latest.get('busy', 0))}/"
            f"{_fmt(latest.get('workers', 0))} "
            f"utilization={_fmt(latest.get('utilization', 0.0))} "
            f"leases={_fmt(latest.get('leases', 0))} "
            f"wait avg={_fmt(latest.get('lease_wait_avg', 0.0))}s "
            f"max={_fmt(latest.get('lease_wait_max', 0.0))}s"
        )
        lines.append(
            "caching : "
            f"hit ratio={_fmt(latest.get('cache_hit_ratio', 0.0))}  "
            "events  : "
            f"ring={_fmt(ring.get('records', latest.get('event_records', 0)))}"
            f"/{_fmt(ring.get('capacity', '?'))}  "
            "traces  : "
            f"{_fmt(traces.get('traces', 0))} "
            f"({_fmt(traces.get('events', 0))} spans)"
        )
    else:
        lines.append("(no telemetry samples yet)")
    # The rings' overwrite counts, under their repro_ring_dropped_total
    # labels.
    lines.append(
        "dropped : "
        f"events={_fmt(ring.get('dropped', latest.get('event_dropped', 0)))} "
        f"traces={_fmt(traces.get('dropped', 0))} "
        f"telemetry={_fmt(recorded - len(samples))}"
    )
    if samples:
        lines.append("")
        for column, label in _SPARK_COLUMNS:
            series = [row.get(column, 0) for row in samples]
            lines.append(
                f"{label:<7s} {_sparkline(series)}  now={_fmt(series[-1])}"
            )
    tail = (doc.get("events") or [])[-events:] if events > 0 else []
    if tail:
        lines.append("")
        lines.append(f"newest {len(tail)} events:")
        for record in tail:
            detail = " ".join(
                f"{k}={v}" for k, v in record.items()
                if k not in ("seq", "event")
            )
            lines.append(
                f"  seq {record.get('seq', '?'):>6} "
                f"{record.get('event', '?'):<18s} {detail}"
            )
    return "\n".join(lines)


def load_telemetry(path) -> dict[str, Any]:
    """Read a telemetry document from ``path`` (a ``serve --flight``
    file); raise ValueError for anything but a schema-1 document."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ValueError(f"{path}: not a schema-1 telemetry document")
    return doc


def _job_states(
    events: list[dict[str, Any]],
) -> dict[str, tuple[str, dict[str, Any]]]:
    """Each job's last known state and last event, rebuilt from an
    event tail."""
    jobs: dict[str, tuple[str, dict[str, Any]]] = {}
    for record in events:
        job = record.get("job")
        if job is None:
            continue
        state = jobs.get(job, ("in flight",))[0]
        if record.get("event") == "job.completed":
            state = record.get("reason", "completed")
        jobs[job] = (state, record)
    return jobs


def render_postmortem(doc: dict[str, Any], tail: int = 15) -> str:
    """Render a flight file: :func:`render_top`'s view with a
    ``tail``-event tail, then each job's last known state, a job the
    tail never saw complete flagged ``<- interrupted``."""
    lines = [render_top(doc, events=tail)]
    jobs = _job_states(doc.get("events") or [])
    if jobs:
        lines.append("")
        lines.append("jobs (last known state):")
        for job, (state, last) in jobs.items():
            flag = "" if state in JOB_TERMINAL else "  <- interrupted"
            lines.append(
                f"  {job:<12s} {state:<10s} last event"
                f" {last.get('event', '?')} (seq {last.get('seq', '?')}){flag}"
            )
    return "\n".join(lines)


def run_top(
    client,
    interval: float = 1.0,
    iterations: int | None = None,
    out: Callable[[str], None] = print,
    clear: bool = True,
) -> int:
    """Fetch + render + sleep until interrupted (or ``iterations``).

    ``client`` needs only a ``telemetry()`` method; ``iterations``
    bounds the loop for tests and scripts.  Returns the number of
    refreshes rendered.
    """
    shown = 0
    try:
        while iterations is None or shown < iterations:
            doc = client.telemetry()
            text = render_top(doc)
            out(CLEAR + text if clear else text)
            shown += 1
            if iterations is not None and shown >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return shown
