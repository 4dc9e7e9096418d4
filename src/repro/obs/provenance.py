"""Temporal-silence provenance: explain every communication miss.

The paper's argument is causal — a communication miss is avoidable iff
a temporally silent store pair reverted the line before the consumer's
reload, and MESTI / Enhanced MESTI / LVP each intercept a different
link in that chain.  This module reconstructs those chains from one
traced run: it folds the span stream (:mod:`repro.obs.spans`) and the
point events back into per-line lifetimes, attributes every
communication miss to a provenance class, accounts every validate's
fate, and builds the intermediate-value-distance and silence-lifetime
distributions of the paper's Figures 2 and 5.

Miss provenance classes (:data:`MISS_CLASSES`):

* ``lvp``            — the reload's speculative value verified: LVP hid
  the miss latency (LVP-verifiable).
* ``tss.suppressed`` — a temporally silent sharing miss whose most
  recent silence episode was *suppressed* by the validate policy: the
  miss would have been saved had the validate been broadcast (the cost
  side of the E-MESTI predictor).
* ``tss.validated``  — a validate *was* broadcast but this consumer
  still missed (no T copy to re-install: evicted, never held, or
  raced) — the residual MESTI cannot reach.
* ``tss.unexploited``— temporally silent sharing with no validate
  machinery acting (base protocol, or silence undetected): avoidable
  in principle by MESTI.
* ``false-sharing``  — the referenced word was unchanged: capturable
  by LVP (§3.1).
* ``true-sharing``   — the referenced word changed: fundamental
  communication.
* ``unattributed``   — a communication miss the analyzer could not
  sub-classify (no invalidation snapshot was available).

Validate accounting distinguishes *reinstalling* broadcasts (at least
one remote T copy was re-installed — the paper's useful validates)
from *inert* ones, and reconciles the trace-side totals exactly
against the run's exported counters (``RunResult.metrics``, a
:class:`~repro.obs.metrics.MetricsRegistry`): both sides come from
the same code paths, so any mismatch is an instrumentation bug, not
noise.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable

from repro.common.stats import Histogram
from repro.obs.spans import collect_spans

#: Provenance classes, in attribution priority order.
MISS_CLASSES = (
    "lvp",
    "tss.suppressed",
    "tss.validated",
    "tss.unexploited",
    "false-sharing",
    "true-sharing",
    "unattributed",
)

#: Transactions whose grant ends a silence lifetime (the line's
#: reverted value stops being the globally visible one, or the copies
#: that could exploit it are gone).
_LIFETIME_ENDERS = ("ReadX", "Upgrade", "Writeback")


@dataclass
class LineProvenance:
    """Per-line aggregate: misses by class, validate fate, traffic."""

    base: int
    misses: int = 0
    comm: int = 0
    classes: dict[str, int] = field(default_factory=dict)
    validates: int = 0
    suppressed: int = 0
    revalidations: int = 0

    @property
    def avoidable(self) -> int:
        """Comm misses in a class some studied technique addresses."""
        return sum(
            self.classes.get(c, 0)
            for c in ("lvp", "tss.suppressed", "tss.validated",
                      "tss.unexploited", "false-sharing")
        )

    def to_dict(self) -> dict:
        """JSON-safe representation (classes in fixed order)."""
        return {
            "base": hex(self.base),
            "misses": self.misses,
            "comm": self.comm,
            "classes": {c: self.classes.get(c, 0) for c in MISS_CLASSES
                        if self.classes.get(c, 0)},
            "validates": self.validates,
            "suppressed": self.suppressed,
            "revalidations": self.revalidations,
        }


@dataclass
class ProvenanceReport:
    """Everything one traced run can say about its communication."""

    misses_total: int
    misses_by_class: dict[str, int]
    comm_classes: dict[str, int]
    comm_causes: dict[str, int]
    validates: dict[str, int]
    ivd: dict
    silence_lifetime: dict
    lines: dict[int, LineProvenance]
    spans: dict[str, int]

    @property
    def comm_misses(self) -> int:
        """Total communication misses observed in the trace."""
        return self.misses_by_class.get("comm", 0)

    @property
    def attributed(self) -> int:
        """Communication misses placed in a real provenance class."""
        return self.comm_misses - self.comm_classes.get("unattributed", 0)

    @property
    def attribution_rate(self) -> float:
        """Fraction of communication misses attributed (1.0 when none)."""
        comm = self.comm_misses
        return self.attributed / comm if comm else 1.0

    def top_lines(self, n: int = 10) -> list[LineProvenance]:
        """The ``n`` worst offender lines by communication misses."""
        ranked = sorted(
            self.lines.values(), key=lambda lp: (-lp.comm, -lp.misses, lp.base)
        )
        return ranked[:n]

    def to_json(self) -> dict:
        """Full JSON document (``repro-sim explain --format json``)."""
        return {
            "schema": 1,
            "misses": {
                "total": self.misses_total,
                "by_class": dict(self.misses_by_class),
                "comm_provenance": {
                    c: self.comm_classes.get(c, 0) for c in MISS_CLASSES
                },
                "comm_causes": dict(self.comm_causes),
                "attributed": self.attributed,
                "attribution_rate": round(self.attribution_rate, 4),
            },
            "validates": dict(self.validates),
            "ivd": self.ivd,
            "silence_lifetime": self.silence_lifetime,
            "spans": dict(self.spans),
            "top_lines": [lp.to_dict() for lp in self.top_lines(20)],
        }


def analyze_events(events: Iterable) -> ProvenanceReport:
    """Build a :class:`ProvenanceReport` from a trace event stream.

    Accepts any iterable of event objects (``ts``/``kind``/``node``/
    ``base``/``fields`` attributes) — a live
    :class:`~repro.obs.tracer.Tracer`'s buffer or a loaded trace file.
    """
    events = list(events)
    stream = collect_spans(events)

    # Index 1: miss spans that were verified by LVP (lvp.verify tags
    # the miss span of the reload it hid).
    lvp_verified: dict[int, bool] = {}
    # Index 2: per-base silence episodes (ts, outcome) and per-base
    # lifetime-ending grants, both in stream order (ts-sorted since
    # these events are emitted live, never retroactively).
    silences: dict[int, list[tuple[int, str]]] = {}
    enders: dict[int, list[int]] = {}
    # Index 3: validate accounting.
    validates = {
        "broadcast": 0, "suppressed": 0, "cancelled": 0,
        "reinstalling": 0, "inert": 0, "revalidations": 0,
        "useful": 0, "useless": 0,
    }
    revalidated_spans: dict[int, int] = {}
    broadcast_spans: list[int] = []
    ivd_hist = Histogram()
    last_ts = 0

    for ev in events:
        last_ts = max(last_ts, ev.ts)
        kind = ev.kind
        if kind == "lvp.verify":
            span = ev.fields.get("span")
            if span is not None:
                lvp_verified[span] = True
        elif kind == "validate.broadcast":
            validates["broadcast"] += 1
            silences.setdefault(ev.base, []).append((ev.ts, "broadcast"))
            ivd_hist.record(ev.fields.get("ivd", 0))
            span = ev.fields.get("span")
            if span is not None:
                broadcast_spans.append(span)
        elif kind == "validate.suppressed":
            validates["suppressed"] += 1
            silences.setdefault(ev.base, []).append((ev.ts, "suppressed"))
            ivd_hist.record(ev.fields.get("ivd", 0))
        elif kind == "validate.revalidate":
            validates["revalidations"] += 1
            span = ev.fields.get("span")
            if span is not None:
                revalidated_spans[span] = revalidated_spans.get(span, 0) + 1
        elif kind == "bus.cancel":
            if ev.fields.get("txn") == "Validate":
                validates["cancelled"] += 1
        elif kind == "bus.grant":
            if ev.fields.get("txn") in _LIFETIME_ENDERS:
                enders.setdefault(ev.base, []).append(ev.ts)
        elif kind == "predictor.train":
            cause = ev.fields.get("cause")
            if cause in ("external_request", "useful_snoop"):
                validates["useful"] += 1
            elif cause == "useless_snoop":
                validates["useless"] += 1

    validates["reinstalling"] = sum(
        1 for span in broadcast_spans if revalidated_spans.get(span)
    )
    validates["inert"] = validates["broadcast"] - validates["reinstalling"]

    # Silence lifetimes: from each silence episode to the next
    # lifetime-ending grant on the same line; episodes still live at
    # the end of the run are censored (counted, not recorded).
    life_hist = Histogram()
    censored = 0
    for base in sorted(silences):
        ends = enders.get(base, ())
        for ts, _outcome in silences[base]:
            idx = bisect.bisect_right(ends, ts)
            if idx < len(ends):
                life_hist.record(ends[idx] - ts)
            else:
                censored += 1

    # Pass 2: attribute every miss.
    misses_total = 0
    misses_by_class: dict[str, int] = {}
    comm_classes: dict[str, int] = {}
    comm_causes: dict[str, int] = {}
    lines: dict[int, LineProvenance] = {}
    for ev in events:
        if ev.kind not in ("mem.miss", "validate.broadcast",
                           "validate.suppressed", "validate.revalidate"):
            continue
        lp = lines.get(ev.base)
        if lp is None:
            lp = lines[ev.base] = LineProvenance(base=ev.base)
        if ev.kind == "validate.broadcast":
            lp.validates += 1
            continue
        if ev.kind == "validate.suppressed":
            lp.suppressed += 1
            continue
        if ev.kind == "validate.revalidate":
            lp.revalidations += 1
            continue
        misses_total += 1
        lp.misses += 1
        cls = ev.fields.get("cls") or "unknown"
        misses_by_class[cls] = misses_by_class.get(cls, 0) + 1
        if cls != "comm":
            continue
        lp.comm += 1
        cause = ev.fields.get("cause") or "unknown"
        comm_causes[cause] = comm_causes.get(cause, 0) + 1
        prov = _attribute(ev, lvp_verified, silences)
        comm_classes[prov] = comm_classes.get(prov, 0) + 1
        lp.classes[prov] = lp.classes.get(prov, 0) + 1

    return ProvenanceReport(
        misses_total=misses_total,
        misses_by_class=misses_by_class,
        comm_classes=comm_classes,
        comm_causes=comm_causes,
        validates=validates,
        ivd=ivd_hist.summary(),
        silence_lifetime={**life_hist.summary(), "censored": censored},
        lines=lines,
        spans={
            "total": len(stream.spans),
            "open": stream.open,
            "truncated": stream.truncated,
        },
    )


def _attribute(ev, lvp_verified: dict[int, bool], silences: dict) -> str:
    """Attribute one communication-miss event to a provenance class."""
    span = ev.fields.get("span")
    if span is not None and lvp_verified.get(span):
        return "lvp"
    cause = ev.fields.get("cause")
    if cause == "tss":
        # The miss's fill time bounds the consumer's reload; the most
        # recent silence episode on the line before it tells which
        # mechanism had (or missed) its chance.
        fill_ts = ev.ts + ev.fields.get("dur", 0)
        episodes = silences.get(ev.base, ())
        idx = bisect.bisect_right([ts for ts, _ in episodes], fill_ts)
        if idx == 0:
            return "tss.unexploited"
        outcome = episodes[idx - 1][1]
        return "tss.suppressed" if outcome == "suppressed" else "tss.validated"
    if cause == "false":
        return "false-sharing"
    if cause == "true":
        return "true-sharing"
    return "unattributed"


def line_chain(events: Iterable, base: int, limit: int | None = None) -> list[dict]:
    """Chronological event chain for one line (``--line`` drill-down).

    Returns the line's lifetime as flattened event dicts — store /
    invalidate / silent revert / validate / next access — newest last;
    ``limit`` keeps only the most recent entries.
    """
    chain = [ev.to_dict() for ev in events if ev.base == base]
    chain.sort(key=lambda d: d["ts"])
    if limit is not None and len(chain) > limit:
        chain = chain[-limit:]
    return chain


# ---------------------------------------------------------------------------
# Reconciliation against the metrics registry
# ---------------------------------------------------------------------------


def reconcile(report: ProvenanceReport, metrics) -> list[dict]:
    """Check the trace-derived totals against a run's ``metrics``.

    Both sides are produced by the same increments (the tracer emit
    and the stats counter the export reads sit on the same code path),
    so every row must match *exactly*; a mismatch is an
    instrumentation bug.
    Returns one row per checked quantity:
    ``{"name", "trace", "counter", "ok"}``.
    """
    validates = report.validates
    rows = [
        ("validates.broadcast", validates["broadcast"],
         metrics.total("repro_validates_total", outcome="broadcast")),
        ("validates.suppressed", validates["suppressed"],
         metrics.total("repro_validates_total", outcome="suppressed")),
        ("validates.cancelled", validates["cancelled"],
         metrics.total("repro_validates_total", outcome="cancelled")),
        ("validates.useful", validates["useful"],
         metrics.total("repro_predictor_transitions_total", cause="external_request")
         + metrics.total("repro_predictor_transitions_total", cause="useful_snoop")),
        ("validates.useless", validates["useless"],
         metrics.total("repro_predictor_transitions_total", cause="useless_snoop")),
        ("revalidations", validates["revalidations"],
         metrics.total("repro_revalidations_total")),
        ("misses.comm", report.comm_misses,
         metrics.total("repro_misses_total", cls="comm")),
        # Cause buckets (not provenance classes): LVP-verified misses
        # are attributed "lvp" first, so classes understate the raw
        # causes the classifier counted; comm_causes keeps the raw
        # tallies precisely for this comparison.
        ("misses.comm.tss", report.comm_causes.get("tss", 0),
         metrics.total("repro_comm_misses_total", cause="tss")),
        ("misses.comm.false", report.comm_causes.get("false", 0),
         metrics.total("repro_comm_misses_total", cause="false")),
        ("misses.comm.true", report.comm_causes.get("true", 0),
         metrics.total("repro_comm_misses_total", cause="true")),
    ]
    out = []
    for name, trace_val, counter_val in rows:
        out.append(
            {
                "name": name,
                "trace": int(trace_val),
                "counter": int(counter_val),
                "ok": int(trace_val) == int(counter_val),
            }
        )
    return out


def reconciliation_ok(rows: list[dict]) -> bool:
    """True when every reconciliation row matched exactly."""
    return all(row["ok"] for row in rows)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_provenance(
    report: ProvenanceReport,
    reconciliation: list[dict] | None = None,
    top: int = 10,
) -> str:
    """Human-readable explain report (``repro-sim explain``)."""
    lines = ["== miss provenance =="]
    lines.append(f"misses total               : {report.misses_total}")
    for cls in sorted(report.misses_by_class):
        lines.append(f"  {cls:<25}: {report.misses_by_class[cls]}")
    comm = report.comm_misses
    lines.append(
        f"communication misses       : {comm} "
        f"({report.attributed} attributed, "
        f"{report.attribution_rate:.1%})"
    )
    for cls in MISS_CLASSES:
        count = report.comm_classes.get(cls, 0)
        if count:
            share = count / comm if comm else 0.0
            lines.append(f"  {cls:<25}: {count} ({share:.1%})")
    lines.append("")
    lines.append("== validates ==")
    for key in ("broadcast", "reinstalling", "inert", "suppressed",
                "cancelled", "revalidations", "useful", "useless"):
        lines.append(f"  {key:<25}: {report.validates[key]}")
    lines.append("")
    lines.append("== distributions ==")
    lines.append(f"  intermediate-value dist  : {report.ivd}")
    lines.append(f"  silence lifetime (cycles): {report.silence_lifetime}")
    lines.append(
        f"  spans: {report.spans['total']} "
        f"(open {report.spans['open']}, truncated {report.spans['truncated']})"
    )
    offenders = report.top_lines(top)
    if offenders:
        lines.append("")
        lines.append(f"== top {len(offenders)} offender lines ==")
        lines.append(
            f"  {'base':>10} {'comm':>6} {'miss':>6} {'val':>5} "
            f"{'supp':>5} {'reval':>6}  classes"
        )
        for lp in offenders:
            classes = ", ".join(
                f"{c}={lp.classes[c]}"
                for c in MISS_CLASSES if lp.classes.get(c)
            )
            lines.append(
                f"  {lp.base:#10x} {lp.comm:>6} {lp.misses:>6} "
                f"{lp.validates:>5} {lp.suppressed:>5} "
                f"{lp.revalidations:>6}  {classes}"
            )
    if reconciliation is not None:
        lines.append("")
        lines.append("== metrics reconciliation ==")
        for row in reconciliation:
            mark = "ok" if row["ok"] else "MISMATCH"
            lines.append(
                f"  {row['name']:<25}: trace={row['trace']} "
                f"counter={row['counter']} [{mark}]"
            )
    return "\n".join(lines)
