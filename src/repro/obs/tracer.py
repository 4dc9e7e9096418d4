"""Structured, typed simulation tracing.

Every interesting protocol moment — a bus grant, a cache state
transition (including T and Validate_Shared), a validate broadcast or
suppression, an LVP prediction/verification/squash, an SLE
attempt/abort — is emitted as a :class:`TraceEvent` with the simulated
cycle, the node, the line address, and event-specific fields.  A
trace file is span-event JSON-lines (one event per line, grep/jq
friendly) ending in one trailer row that records what the ring
dropped (:func:`trace_jsonl`); :func:`chrome_document` renders the
events as a Chrome trace-event document (``repro-sim report
--chrome``) for Perfetto / ``chrome://tracing``.

The taxonomy is the closed set in :data:`EVENT_KINDS`; dotted names
group related events (``bus.*``, ``cache.*``, ``validate.*``,
``lvp.*``, ``sle.*``, ``mem.*``, ``predictor.*``) so filters can match
whole families by prefix.

Disabled-by-default with zero cost: components hold a tracer reference
that defaults to :data:`NULL_TRACER`, a dedicated no-op object that
shares no code with :class:`Tracer` — there is no ``if enabled`` branch
or filtering logic on the default path, only an empty method.

Beyond point events, the tracer carries *spans*: begin/end pairs with
parent links that bound causal episodes (a miss's MSHR lifetime, a bus
transaction, a validate episode, an SLE region).  Span ids are minted
by :meth:`Tracer.span_begin` from a monotonic counter, so they are
deterministic across runs; :mod:`repro.obs.spans` reconstructs them
and :mod:`repro.obs.provenance` builds miss/validate attributions on
top.  A tracer opened under the service's trace context numbers its
spans inside the context span's id block instead, so a worker
process's span rows join the job's trace as they are (see
:class:`Tracer`).  A tracer is also a context manager with an
``atexit`` safety net: attach a sink path and a crashed or
interrupted run still writes the partial buffer instead of losing it.
"""

from __future__ import annotations

import atexit
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import ConfigError
from repro.obs.ring import Ring
from repro.obs.spans import chrome_span_records, collect_spans

#: Low bits of a span id: span ``s`` owns the id block
#: ``(s << SPAN_ID_BITS) + 1 ...``, where a tracer opened under ``s``
#: numbers its spans.  A cell mints far fewer than 2**32 spans.
SPAN_ID_BITS = 32

#: The closed event taxonomy.  Dotted prefixes group families.
EVENT_KINDS = frozenset(
    {
        # Address network / interconnect.
        "bus.grant",          # transaction granted; aggregate snoop result
        "bus.cancel",         # transaction cancelled at pre-grant fixup
        # L2 line state machine (any protocol, incl. T and VS states).
        "cache.transition",   # frm/to states, via = transaction kind
        # Temporal-silence validate lifecycle.
        "validate.broadcast",  # TS detected and validate sent
        "validate.suppressed", # TS detected, policy suppressed the validate
        "validate.revalidate", # remote T copy re-installed by a validate
        # Useful-validate predictor (Figure 4).
        "predictor.decide",   # confidence read at TS-detect: send yes/no
        "predictor.train",    # confidence bumped (+/-) with the cause
        # Load value prediction from stale lines.
        "lvp.predict",        # stale word delivered speculatively
        "lvp.verify",         # coherent data confirmed the prediction(s)
        "lvp.squash",         # mismatch: machine squash at oldest consumer
        # Speculative lock elision.
        "sle.attempt",        # elision begun for a candidate region
        "sle.commit",         # region committed atomically
        "sle.abort",          # region aborted (reason field)
        "sle.fallback",       # non-retried abort: fallback acquisition
        # Memory hierarchy timing.
        "mem.miss",           # one line miss, emitted at fill with dur
        # Causal spans (see repro.obs.spans).
        "span.begin",         # span opened: id, name, optional parent
        "span.end",           # span closed: id, outcome fields
    }
)


@dataclass
class TraceEvent:
    """One structured trace event."""

    ts: int
    kind: str
    node: int | None = None
    base: int | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Flatten to the JSONL wire form."""
        out: dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.base is not None:
            out["base"] = self.base
        out.update(self.fields)
        return out


class TraceFilter:
    """Per-kind / per-node / per-address event filter.

    ``kinds`` entries match exactly or by dotted prefix (``bus`` and
    ``bus.`` both match every ``bus.*`` event); ``nodes`` and ``bases``
    match exactly (events without a node/base always pass that clause).
    """

    def __init__(
        self,
        kinds: Iterable[str] | None = None,
        nodes: Iterable[int] | None = None,
        bases: Iterable[int] | None = None,
    ):
        self.kinds = tuple(k.rstrip(".") for k in kinds) if kinds else None
        self.nodes = frozenset(nodes) if nodes is not None else None
        self.bases = frozenset(bases) if bases is not None else None

    def matches(self, kind: str, node: int | None, base: int | None) -> bool:
        """True if an event with these coordinates should be kept."""
        if self.kinds is not None and not any(
            kind == k or kind.startswith(k + ".") for k in self.kinds
        ):
            return False
        if self.nodes is not None and node is not None and node not in self.nodes:
            return False
        if self.bases is not None and base is not None and base not in self.bases:
            return False
        return True

    @classmethod
    def parse(cls, expr: str) -> "TraceFilter":
        """Parse a CLI filter expression.

        Grammar: comma-separated ``key=value[|value...]`` clauses with
        keys ``kind``, ``node``, ``addr``.  Node values may be ranges
        (``0-3``); addresses accept ``0x`` hex.  Example::

            kind=validate|bus.grant,node=0-3,addr=0x1440
        """
        kinds: list[str] = []
        nodes: list[int] = []
        bases: list[int] = []
        for clause in filter(None, (c.strip() for c in expr.split(","))):
            key, sep, values = clause.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigError(f"bad trace filter clause {clause!r}")
            for value in values.split("|"):
                value = value.strip()
                if key == "kind":
                    kinds.append(value)
                elif key == "node":
                    lo, dash, hi = value.partition("-")
                    if dash:
                        nodes.extend(range(int(lo), int(hi) + 1))
                    else:
                        nodes.append(int(value))
                elif key == "addr":
                    bases.append(int(value, 0))
                else:
                    raise ConfigError(f"unknown trace filter key {key!r}")
        return cls(
            kinds=kinds or None,
            nodes=nodes or None,
            bases=bases or None,
        )


class _NullSpan:
    """No-op span context manager returned by ``_NullTracer.span``."""

    __slots__ = ()

    def __enter__(self):
        """Enter the no-op span; there is no span id."""
        return None

    def __exit__(self, exc_type, exc, tb):
        """Leave the no-op span without suppressing exceptions."""
        return False


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """The do-nothing tracer installed by default.

    Deliberately *not* a :class:`Tracer` subclass: the default
    (untraced) simulation path reaches only these empty methods and
    shares none of the real tracer's filtering or buffering code.
    """

    __slots__ = ()

    def emit(self, kind, node=None, base=None, ts=None, **fields):
        """Discard the event."""

    def span_begin(self, name, node=None, base=None, parent=None, ts=None,
                   **fields):
        """Discard the span; the null span id is None."""
        return None

    def span_end(self, span, node=None, base=None, ts=None, **fields):
        """Discard the span end."""

    def span(self, name, node=None, base=None, parent=None, **fields):
        """Return the shared no-op span context manager."""
        return _NULL_SPAN


#: Shared process-wide no-op tracer; components default to this.
NULL_TRACER = _NullTracer()


class Tracer:
    """Collects :class:`TraceEvent` records during a simulation.

    ``clock`` supplies the current cycle (bound to the scheduler by
    :meth:`bind_clock` — :class:`repro.system.system.System` does this
    automatically).  ``ring`` bounds the buffer to the most recent N
    events (long-run flight-recorder mode), counting the overwritten
    ones in :attr:`overwritten`; unbounded otherwise.

    ``context`` is the service's trace context, ``{"trace", "span"}``
    (the job's trace id and its ``cell.run`` span id).  Under it, span
    ids number up from ``span``'s id block (``SPAN_ID_BITS``), root
    spans parent under ``span``, and every ``span.begin`` carries the
    ``trace`` id and ``clock: "cycles"``, so :meth:`rows` are the
    job-trace rows the service appends unchanged.

    ``path`` attaches a *sink*: the trace is written there by
    :meth:`close` (or the context-manager exit), and — crash safety —
    by an ``atexit`` hook if the process dies with the tracer still
    open, so an interrupted run keeps its partial trace.
    """

    def __init__(
        self,
        clock: Callable[[], int] | None = None,
        filter: TraceFilter | None = None,
        ring: int | None = None,
        path=None,
        context: dict | None = None,
    ):
        if ring is not None and ring <= 0:
            raise ConfigError(f"trace ring size must be positive, got {ring}")
        self._clock = clock or (lambda: 0)
        self.filter = filter
        self._events: Ring[TraceEvent] = Ring(ring)
        self.filtered = 0  # events rejected by the filter
        self._root = None if context is None else context["span"]
        self._stamp = (
            {} if context is None
            else {"trace": context["trace"], "clock": "cycles"}
        )
        self._span_ids = count(
            1 if self._root is None else (self._root << SPAN_ID_BITS) + 1
        )
        self._sink_path = None
        self._atexit_registered = False
        if path is not None:
            self.attach_sink(path)

    def bind_clock(self, scheduler) -> None:
        """Read timestamps from ``scheduler.now`` from now on."""
        self._clock = lambda: scheduler.now

    def emit(
        self,
        kind: str,
        node: int | None = None,
        base: int | None = None,
        ts: int | None = None,
        **fields: Any,
    ) -> None:
        """Record one event (``ts`` overrides the clock, e.g. for
        duration events stamped at their start time)."""
        if self.filter is not None and not self.filter.matches(kind, node, base):
            self.filtered += 1
            return
        self._events.append(
            TraceEvent(
                ts=ts if ts is not None else self._clock(),
                kind=kind,
                node=node,
                base=base,
                fields=fields,
            )
        )

    # -- spans -----------------------------------------------------------

    def span_begin(
        self,
        name: str,
        node: int | None = None,
        base: int | None = None,
        parent: int | None = None,
        ts: int | None = None,
        **fields: Any,
    ) -> int:
        """Open a span; returns its id (thread it to :meth:`span_end`).

        Ids come from a per-tracer monotonic counter, so they are
        deterministic and double as creation order.  ``parent`` links
        this span under another, forming the causal tree; without one
        the span is a root (under the trace context's span, if any).
        """
        sid = next(self._span_ids)
        if parent is None:
            parent = self._root
        if parent is not None:
            fields["parent"] = parent
        self.emit("span.begin", node=node, base=base, ts=ts, span=sid,
                  name=name, **fields, **self._stamp)
        return sid

    def span_end(
        self,
        span: int | None,
        node: int | None = None,
        base: int | None = None,
        ts: int | None = None,
        **fields: Any,
    ) -> None:
        """Close a span; ``None`` (the null span id) is ignored, so
        call sites never branch on whether tracing is enabled."""
        if span is None:
            return
        self.emit("span.end", node=node, base=base, ts=ts, span=span, **fields)

    @contextmanager
    def span(
        self,
        name: str,
        node: int | None = None,
        base: int | None = None,
        parent: int | None = None,
        **fields: Any,
    ):
        """Context manager bounding a span; yields the span id."""
        sid = self.span_begin(name, node=node, base=base, parent=parent,
                              **fields)
        try:
            yield sid
        finally:
            self.span_end(sid, node=node, base=base)

    @property
    def overwritten(self) -> int:
        """Events the ring buffer overwrote (always 0 without ``ring``)."""
        return self._events.dropped

    # -- crash safety ----------------------------------------------------

    def attach_sink(self, path) -> None:
        """Write the trace to ``path`` at close/exit (flush-on-crash).

        Registers an ``atexit`` hook so the buffer survives an
        unhandled exception or interrupt; :meth:`close` (or leaving
        the ``with`` block) writes the file and unregisters the hook.
        """
        self._sink_path = path
        if not self._atexit_registered:
            atexit.register(self._atexit_flush)
            self._atexit_registered = True

    def _atexit_flush(self) -> None:
        """Best-effort sink write at interpreter exit (never raises)."""
        if self._sink_path is None:
            return
        try:
            self.save(self._sink_path)
        except Exception:  # noqa: BLE001 - crash path must not mask exit
            pass

    def close(self) -> None:
        """Write the attached sink (if any) and drop the atexit hook."""
        if self._atexit_registered:
            atexit.unregister(self._atexit_flush)
            self._atexit_registered = False
        if self._sink_path is not None:
            self.save(self._sink_path)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    # -- serialization ---------------------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """The buffered events in their JSONL wire form, oldest first."""
        return [e.to_dict() for e in self._events]

    def to_jsonl(self) -> str:
        """The trace file: the rows in emission order, then a trailer
        whose ``dropped`` counts the rows the ring overwrote."""
        return trace_jsonl(self.rows(), "tracer", self.overwritten)

    def save(self, path) -> None:
        """Write the trace file (:meth:`to_jsonl`) to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def trace_jsonl(
    rows: Iterable[dict[str, Any]], meta: str, dropped: int, **trailer: Any,
) -> str:
    """The one trace file format: one span-event row per line, then one
    trailer row ``{"meta": meta, **trailer, "events": n, "dropped":
    dropped}``.

    ``dropped`` counts the rows the writer's bounded buffer lost, so a
    file records its own loss; :func:`repro.obs.report.load_trace`
    reads the trailer back.
    """
    lines = [json.dumps(row) for row in rows]
    lines.append(json.dumps(
        {"meta": meta, **trailer, "events": len(lines), "dropped": dropped}
    ))
    return "\n".join(lines) + "\n"


def chrome_document(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Render any event stream as a Chrome trace document.

    One ``tid`` track per node; events carrying a ``dur`` field
    become complete (``X``) duration events, the rest instants.
    ``span.begin``/``span.end`` become async (``b``/``e``) events
    keyed by span id, and parent links become flow (``s``/``f``)
    arrows from the parent's begin to the child's begin.  Events
    are sorted by timestamp so viewers see a monotone timeline
    even when duration events were stamped retroactively.

    ``metadata.spans_truncated`` counts the span ends, in the given
    events, whose begin is missing (evicted by a trace ring).  This
    is ``repro-sim report --chrome``'s export of a loaded trace file.
    """
    events = list(events)
    spans_truncated = collect_spans(events).truncated
    events.sort(key=lambda e: e.ts)
    # Prescan: span id -> (name, begin ts, tid) so end events can
    # carry the span's name and flow arrows can anchor on parents.
    begun: dict[int, tuple[str, int, int]] = {}
    for e in events:
        if e.kind == "span.begin":
            begun[e.fields.get("span")] = (
                e.fields.get("name", "span"),
                e.ts,
                e.node if e.node is not None else -1,
            )
    trace_events = []
    for e in events:
        if e.kind in ("span.begin", "span.end"):
            trace_events.extend(chrome_span_records(e, begun))
            continue
        args = dict(e.fields)
        if e.base is not None:
            args["base"] = f"{e.base:#x}"
        record: dict[str, Any] = {
            "name": e.kind,
            "cat": e.kind.split(".", 1)[0],
            "ts": e.ts,
            "pid": 0,
            "tid": e.node if e.node is not None else -1,
            "args": args,
        }
        dur = args.pop("dur", None)
        if dur is not None:
            record["ph"] = "X"
            record["dur"] = dur
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "metadata": {
            "clock": "cycles",
            "spans_truncated": spans_truncated,
        },
    }
