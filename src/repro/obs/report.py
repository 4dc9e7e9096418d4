"""Trace file reading and summarization (``repro-sim report``).

Reads a trace file in the one format every writer uses (span-event
JSONL ending in one trailer row, see
:func:`repro.obs.tracer.trace_jsonl`), reduces it to counts per event
kind / per node / per hot line address plus the covered cycle span,
and renders a terminal report.  Loading is tolerant: an empty file is
an empty trace, and malformed lines are counted and skipped rather
than aborting the whole report (a trace from an interrupted run is
exactly when you want the report most).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.errors import ConfigError
from repro.obs.tracer import TraceEvent


@dataclass
class TraceLoad:
    """The outcome of loading a trace file.

    ``skipped`` counts malformed lines that were dropped instead of
    raising; ``dropped`` is the trailer's count of rows the writer's
    bounded buffer lost before the file was written.
    """

    events: list[TraceEvent] = field(default_factory=list)
    skipped: int = 0
    dropped: int = 0


def load_trace(path) -> TraceLoad:
    """Load a span-event JSONL trace file, tolerating damage.

    A row with a ``meta`` key is the file's trailer: its ``dropped``
    adds to :attr:`TraceLoad.dropped`.  Every other row is one event.
    Malformed lines (bad JSON, missing ``ts``/``kind``, a trailer
    without ``dropped``) are skipped and counted in
    :attr:`TraceLoad.skipped`; a truncated final line from an
    interrupted run therefore costs one row, not the whole report.
    Raises :class:`~repro.common.errors.ConfigError` when a non-empty
    file holds no event and no trailer at all (a Chrome document,
    say): it is not a trace file.
    """
    out = TraceLoad()
    trailers = 0
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
            if "meta" in raw:
                out.dropped += raw["dropped"]
                trailers += 1
                continue
            event = TraceEvent(
                ts=raw.pop("ts"),
                kind=raw.pop("kind"),
                node=raw.pop("node", None),
                base=raw.pop("base", None),
                fields=raw,
            )
        except (json.JSONDecodeError, KeyError, AttributeError, TypeError):
            out.skipped += 1
            continue
        out.events.append(event)
    if out.skipped and not out.events and not trailers:
        raise ConfigError(f"{path}: not a span-event JSONL trace file")
    return out


def summarize_trace(
    events: list[TraceEvent], top: int = 10, dropped: int = 0,
) -> dict[str, Any]:
    """Reduce a trace to its headline numbers; ``dropped`` is the
    trace file's count of rows lost before it was written."""
    kinds = Counter(e.kind for e in events)
    nodes = Counter(e.node for e in events if e.node is not None)
    bases = Counter(e.base for e in events if e.base is not None)
    ts = [e.ts for e in events]
    return {
        "events": len(events),
        "dropped": dropped,
        "first_ts": min(ts) if ts else 0,
        "last_ts": max(ts) if ts else 0,
        "kinds": dict(kinds.most_common()),
        "nodes": {f"P{n}": c for n, c in sorted(nodes.items())},
        "hot_lines": {f"{b:#x}": c for b, c in bases.most_common(top)},
    }


def render_report(summary: dict[str, Any]) -> str:
    """Render :func:`summarize_trace` output for the terminal."""
    lines = [
        f"events     : {summary['events']}",
        f"dropped    : {summary['dropped']}",
        f"cycle span : {summary['first_ts']} .. {summary['last_ts']}"
        f" ({summary['last_ts'] - summary['first_ts']} cycles)",
        "",
        "by kind:",
    ]
    for kind, count in summary["kinds"].items():
        lines.append(f"  {kind:<22s} {count:>8d}")
    if summary["nodes"]:
        lines.append("")
        lines.append("by node:")
        for node, count in summary["nodes"].items():
            lines.append(f"  {node:<22s} {count:>8d}")
    if summary["hot_lines"]:
        lines.append("")
        lines.append("hottest lines:")
        for base, count in summary["hot_lines"].items():
            lines.append(f"  {base:<22s} {count:>8d}")
    return "\n".join(lines)
