"""Span stream: causal begin/end pairs reconstructed from trace events.

A *span* is one causally-bounded episode in the simulator — a miss's
MSHR lifetime, a bus transaction from issue to grant, a temporal-
silence detection through its validate's fate, an SLE elision region.
Spans are carried in-band in the ordinary trace-event stream as paired
``span.begin`` / ``span.end`` events whose ``span`` field holds an id
minted by :meth:`~repro.obs.tracer.Tracer.span_begin` (monotonic per
tracer, so runs are deterministic and ids double as creation order).
Parent links (``parent`` field on the begin event) form the causal
tree: a miss span parents the bus transaction it issues.

This module is the *read side*: it folds an event stream back into
:class:`SpanRecord` objects and renders the Chrome async/flow records
that :func:`~repro.obs.tracer.chrome_document` embeds.  It
deliberately does not import the tracer (the tracer imports us), and
treats events duck-typed: anything with ``ts``, ``kind``, ``node``,
``base`` and ``fields`` attributes works.

Ring-buffer interaction: when the tracer runs with a bounded ring, a
``span.begin`` may be evicted while its ``span.end`` survives.  Such
orphaned ends are counted in :attr:`SpanStream.truncated` — an
explicit marker that the span set is incomplete — rather than being
silently dropped or mispaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

#: Event kinds that carry the span stream.
SPAN_EVENT_KINDS = frozenset({"span.begin", "span.end"})

#: The span vocabulary emitted by the simulator (see docs/observability.md).
SPAN_NAMES = (
    "miss",        # MSHR lifetime: request issue -> data delivery
    "txn",         # bus/directory transaction: issue -> grant (or cancel)
    "validate",    # temporal-silence episode: detect -> broadcast/suppress
    "sle.region",  # SLE elision attempt: speculation begin -> commit/fallback
)

#: Service-level spans minted by the job service (docs/service.md):
#: each one carries a ``trace`` field naming the job trace it belongs
#: to, so a single job's causal tree spans the HTTP request, the
#: queue, and the worker process.
SERVICE_SPAN_NAMES = (
    "job",             # submit accepted -> job terminal (done/failed/cancelled)
    "cell.lease",      # worker took the lease -> complete or bounce
    "cell.run",        # executor dispatch -> summary returned
    "cell.cache_hit",  # result-store probe satisfied the cell
)

#: Cap on the span-event rows one cell ships into its job's trace
#: (20 000 closed spans): the worker's trace ring keeps the newest and
#: counts the overwritten ones in the trace's ``dropped``.
CELL_TRACE_ROWS = 40_000


@dataclass
class SpanRecord:
    """One reconstructed span: identity, bounds, parent, merged fields."""

    span: int
    name: str
    node: int | None
    base: int | None
    begin: int
    end: int | None = None
    parent: int | None = None
    fields: dict = field(default_factory=dict)

    @property
    def dur(self) -> int | None:
        """Span duration in cycles (None while the span is open)."""
        return None if self.end is None else self.end - self.begin


@dataclass
class SpanStream:
    """All spans recovered from one event stream, plus health counters."""

    spans: list[SpanRecord]
    by_id: dict[int, SpanRecord]
    truncated: int

    @property
    def open(self) -> int:
        """Spans with a begin but no end in the stream (crash/in-flight)."""
        return sum(1 for s in self.spans if s.end is None)

    def children(self, span_id: int) -> list[SpanRecord]:
        """Direct children of ``span_id`` in creation order."""
        return [s for s in self.spans if s.parent == span_id]


def collect_spans(events: Iterable) -> SpanStream:
    """Fold an event stream into :class:`SpanRecord` objects.

    End-event fields are merged into the record without overwriting
    begin-time fields of the same name.  A ``span.end`` whose begin is
    absent (ring eviction) or already closed increments ``truncated``.
    """
    spans: list[SpanRecord] = []
    by_id: dict[int, SpanRecord] = {}
    truncated = 0
    for ev in events:
        if ev.kind == "span.begin":
            fields = dict(ev.fields)
            sid = fields.pop("span", None)
            rec = SpanRecord(
                span=sid,
                name=fields.pop("name", "span"),
                node=ev.node,
                base=ev.base,
                begin=ev.ts,
                parent=fields.pop("parent", None),
                fields=fields,
            )
            spans.append(rec)
            if sid is not None:
                by_id[sid] = rec
        elif ev.kind == "span.end":
            sid = ev.fields.get("span")
            rec = by_id.get(sid)
            if rec is None or rec.end is not None:
                truncated += 1
                continue
            rec.end = ev.ts
            for key, value in ev.fields.items():
                if key != "span":
                    rec.fields.setdefault(key, value)
    return SpanStream(spans=spans, by_id=by_id, truncated=truncated)


def chrome_span_records(event, begun: dict) -> list[dict]:
    """Chrome records for one span event: async b/e plus flow links.

    ``begun`` maps span id -> ``(name, begin_ts, tid)`` for every
    ``span.begin`` in the stream (prescanned by the exporter so end
    events and parent links can resolve names and anchor points).
    A ``span.begin`` with a known parent also emits a flow-start /
    flow-finish pair connecting the parent's begin to this begin —
    the Chrome "flow event" arrows that make the causal tree visible
    in the trace viewer.
    """
    args = dict(event.fields)
    tid = event.node if event.node is not None else -1
    if event.base is not None:
        args["base"] = hex(event.base)
    records: list[dict] = []
    if event.kind == "span.begin":
        sid = args.pop("span", None)
        name = args.pop("name", "span")
        records.append(
            {
                "name": name, "cat": "span", "id": sid, "ph": "b",
                "ts": event.ts, "pid": 0, "tid": tid, "args": args,
            }
        )
        parent = args.get("parent")
        if parent is not None and parent in begun:
            _, parent_ts, parent_tid = begun[parent]
            flow = {"name": "span-link", "cat": "flow", "id": sid, "pid": 0}
            records.append(
                {**flow, "ph": "s", "ts": parent_ts, "tid": parent_tid}
            )
            records.append(
                {**flow, "ph": "f", "bp": "e", "ts": event.ts, "tid": tid}
            )
    else:
        sid = args.pop("span", None)
        info = begun.get(sid)
        records.append(
            {
                "name": info[0] if info else "span",
                "cat": "span", "id": sid, "ph": "e",
                "ts": event.ts, "pid": 0, "tid": tid, "args": args,
            }
        )
    return records
