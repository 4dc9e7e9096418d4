"""Labeled metrics registry with JSON / Prometheus export.

The :class:`~repro.common.stats.StatsRegistry` counters are flat
dotted strings — good for summing, bad for analysis:
``ctrl3.validates_suppressed`` encodes the node id in the name and
nothing records which counters form one logical series.
:class:`MetricsRegistry` holds first-class *named series*: a metric
family has a name, a help string, a kind (counter / gauge / histogram),
and label names; each label-value combination is one series.

The simulator keeps one counter store, the stats registry.  The
paper-level families — communication misses by cause, validates
issued/useful/useless, predictor confidence transitions, LVP
verify/squash, SLE outcomes — are a view of it: :data:`RUN_METRICS`
declares, per series, the dotted stats key it reads and the
``summarize()`` field it feeds, and :func:`run_metrics` builds a
registry from a finished run's stats.
A series exists when its component resolved the counter handle
(:meth:`~repro.common.stats.StatsRegistry.declared`) or created the
histogram, so counters that stayed at zero are exported too.

The simulation service records its own families into a registry it
owns (``repro_service_*``).

Exports: :meth:`MetricsRegistry.to_json` for programmatic diffing and
:meth:`MetricsRegistry.to_prometheus` for the Prometheus text
exposition format (``repro-sim run --metrics``).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from repro.common.stats import Histogram, StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.common.config import MachineConfig

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict[str, str]) -> str:
    """Render ``{k="v",...}`` (empty string when there are no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


class MetricSeries:
    """One labeled child of a counter/gauge family: a scalar value."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict[str, str]):
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1) -> None:
        """Increment the series (counters should only ever go up)."""
        self.value += amount

    def set(self, value: float) -> None:
        """Set the series to an absolute value (gauges)."""
        self.value = value


class ViewSeries(MetricSeries):
    """A read-only scalar series whose value is read from its source at
    export (see :meth:`MetricFamily.view`)."""

    __slots__ = ("read",)

    def __init__(self, labels: dict[str, str], read: Callable[[], float]):
        self.labels = labels
        self.read = read

    @property
    def value(self) -> float:
        """The source's current value."""
        return self.read()


class HistogramSeries:
    """One labeled child of a histogram family.

    Wraps a :class:`~repro.common.stats.Histogram` — either a private
    one, or (via :meth:`MetricFamily.attach`) an *existing* stats
    histogram, so the distribution a component already records is
    exported without a copy.
    """

    __slots__ = ("labels", "hist")

    def __init__(self, labels: dict[str, str], hist: Histogram):
        self.labels = labels
        self.hist = hist

    def record(self, value: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value``."""
        self.hist.record(value, n)


class MetricFamily:
    """A named metric with fixed label names and one series per value set."""

    __slots__ = ("name", "help", "kind", "label_names", "bounds", "_series")

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002 - Prometheus calls it "help"
        kind: str,
        label_names: tuple[str, ...],
        bounds: tuple[float, ...] | None = None,
    ):
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self.bounds = bounds
        self._series: dict[tuple[str, ...], MetricSeries | HistogramSeries] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        """The series key for ``labels``, which must name exactly the
        family's ``label_names``; values are stringified."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def labels(self, **labels) -> MetricSeries | HistogramSeries:
        """The series for one label-value combination (created on first use).

        Label values are stringified; the keyword names must match the
        family's ``label_names`` exactly.
        """
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            label_map = dict(zip(self.label_names, key))
            if self.kind == HISTOGRAM:
                series = HistogramSeries(label_map, Histogram(self.bounds))
            else:
                series = MetricSeries(label_map)
            self._series[key] = series
        return series

    def attach(self, hist: Histogram, **labels) -> Histogram:
        """Register an *existing* histogram as this family's series.

        Used by :func:`run_metrics` so a component's stats histogram
        doubles as the exported series.
        """
        if self.kind != HISTOGRAM:
            raise ValueError(f"metric {self.name!r} is not a histogram")
        key = self._key(labels)
        self._series[key] = HistogramSeries(dict(zip(self.label_names, key)), hist)
        return hist

    def view(self, read: Callable[[], float], **labels) -> None:
        """Register a scalar series whose value is ``read()`` at export.

        The count stays where it is kept (a ring's overwrite count) and
        the export reads it, so there is no second copy to keep in step.
        """
        if self.kind == HISTOGRAM:
            raise ValueError(f"metric {self.name!r} is a histogram")
        key = self._key(labels)
        self._series[key] = ViewSeries(dict(zip(self.label_names, key)), read)

    def series(self) -> Iterable[MetricSeries | HistogramSeries]:
        """All series in deterministic (label-value) order."""
        return (self._series[key] for key in sorted(self._series))


class MetricsRegistry:
    """Registry of metric families with JSON and Prometheus export.

    Families are created idempotently: re-registering the same name
    with the same kind and label names returns the existing family
    (each series site may register it); a conflicting re-registration
    raises.
    """

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _register(
        self,
        name: str,
        help: str,  # noqa: A002
        kind: str,
        labels: Iterable[str],
        bounds: Iterable[float] | None = None,
    ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or set(family.label_names) != set(label_names):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} with "
                    f"labels {sorted(family.label_names)}"
                )
            if help and not family.help:
                family.help = help
            return family
        family = MetricFamily(
            name, help, kind, label_names,
            tuple(bounds) if bounds is not None else None,
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",  # noqa: A002
                labels: Iterable[str] = ()) -> MetricFamily:
        """Get-or-create a counter family."""
        return self._register(name, help, COUNTER, labels)

    def gauge(self, name: str, help: str = "",  # noqa: A002
              labels: Iterable[str] = ()) -> MetricFamily:
        """Get-or-create a gauge family."""
        return self._register(name, help, GAUGE, labels)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labels: Iterable[str] = (),
                  bounds: Iterable[float] | None = None) -> MetricFamily:
        """Get-or-create a histogram family."""
        return self._register(name, help, HISTOGRAM, labels, bounds)

    # ------------------------------------------------------------------
    # Reading and export
    # ------------------------------------------------------------------

    def families(self) -> Iterable[MetricFamily]:
        """All families in name order."""
        return (self._families[name] for name in sorted(self._families))

    def get(self, name: str, **labels) -> float:
        """Value of one scalar series (0 if the series does not exist)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels[label]) for label in family.label_names)
        series = family._series.get(key)
        if series is None or isinstance(series, HistogramSeries):
            return 0.0
        return series.value

    def total(self, name: str, **labels) -> float:
        """Sum of the series of one counter/gauge family whose labels
        include ``labels`` (every series when none are given)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        match = {k: str(v) for k, v in labels.items()}
        return sum(
            s.value for s in family.series()
            if isinstance(s, MetricSeries)
            and all(s.labels.get(k) == v for k, v in match.items())
        )

    def to_json(self) -> dict:
        """JSON-safe document: one entry per series, sorted, diffable."""
        out = []
        for family in self.families():
            for series in family.series():
                entry = {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "labels": series.labels,
                }
                if isinstance(series, HistogramSeries):
                    entry["histogram"] = series.hist.summary()
                else:
                    entry["value"] = series.value
                out.append(entry)
        return {"schema": 1, "series": out}

    def to_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for series in family.series():
                if isinstance(series, HistogramSeries):
                    lines.extend(self._prom_histogram(family, series))
                else:
                    labels = _format_labels(series.labels)
                    lines.append(f"{family.name}{labels} {series.value:g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _prom_histogram(family: MetricFamily, series: HistogramSeries) -> list[str]:
        """``_bucket``/``_sum``/``_count`` lines for one histogram series."""
        hist = series.hist
        lines = []
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            labels = _format_labels({**series.labels, "le": f"{bound:g}"})
            lines.append(f"{family.name}_bucket{labels} {cumulative}")
        labels = _format_labels({**series.labels, "le": "+Inf"})
        lines.append(f"{family.name}_bucket{labels} {hist.count}")
        base = _format_labels(series.labels)
        lines.append(f"{family.name}_sum{base} {hist.total:g}")
        lines.append(f"{family.name}_count{base} {hist.count}")
        return lines


# ----------------------------------------------------------------------
# The run export table
# ----------------------------------------------------------------------


class MetricSpec(NamedTuple):
    """One exported family and the stats entry each of its series reads."""

    name: str
    kind: str
    help: str
    #: ``(labels, stats key, summary field)`` per series.  ``{node}`` in
    #: a key and its label values expands over the run's processors;
    #: ``{network}`` is the interconnect kind.  The field is the
    #: ``summarize()`` entry the series adds into (``None``: export only).
    series: tuple[tuple[dict[str, str], str, str | None], ...]


def _per_node(
    key: str, field: str | None = None, **labels: str,
) -> tuple[dict[str, str], str, str | None]:
    """A series with one ``node`` label per processor, reading ``key``."""
    return {"node": "{node}", **labels}, key, field


#: Every labelled series a finished run exports, with the stats key it
#: reads and the summary field it feeds.  The series set is exactly
#: what the simulator's components declare: a counter series exists
#: when its handle was resolved, a histogram series when the histogram
#: was created.  The rows run in ``summarize()`` order: a field's
#: first row fixes its place in the summary.
RUN_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec(
        "repro_bus_grants_total", COUNTER, "Address transactions granted, all kinds",
        (({}, "bus.txn.total", "txn_total"),),
    ),
    MetricSpec("repro_bus_txn_total", COUNTER, "Address transactions by kind", (
        ({"kind": "read"}, "bus.txn.read", "txn_read"),
        ({"kind": "readx"}, "bus.txn.readx", "txn_readx"),
        ({"kind": "upgrade"}, "bus.txn.upgrade", "txn_upgrade"),
        ({"kind": "validate"}, "bus.txn.validate", "txn_validate"),
        ({"kind": "writeback"}, "bus.txn.writeback", "txn_writeback"),
        ({"kind": "cancelled"}, "bus.txn.cancelled", None),
    )),
    MetricSpec("repro_bus_data_source_total", COUNTER, "Data responses by source", (
        ({"source": "cache"}, "bus.txn.cache_to_cache", "txn_cache_to_cache"),
        ({"source": "memory"}, "bus.txn.from_memory", None),
    )),
    MetricSpec(
        "repro_bus_queue_depth", HISTOGRAM, "Address-network queue depth at request",
        (({"network": "{network}"}, "bus.queue_depth", None),),
    ),
    MetricSpec(
        "repro_misses_classified_total", COUNTER, "L2 misses classified, all classes",
        (({}, "misses.miss.total", "miss_total"),),
    ),
    MetricSpec("repro_misses_total", COUNTER, "L2 misses by class", (
        ({"cls": "cold"}, "misses.miss.cold", "miss_cold"),
        ({"cls": "capacity"}, "misses.miss.capacity", "miss_capacity"),
        ({"cls": "comm"}, "misses.miss.comm", "miss_comm"),
    )),
    MetricSpec(
        "repro_comm_misses_total", COUNTER,
        "Communication misses by cause (tss/false/true sharing)", (
            ({"cause": "tss"}, "misses.miss.comm.tss", "miss_comm_tss"),
            ({"cause": "false"}, "misses.miss.comm.false", "miss_comm_false"),
            ({"cause": "true"}, "misses.miss.comm.true", "miss_comm_true"),
        ),
    ),
    MetricSpec(
        "repro_miss_latency_cycles", HISTOGRAM, "L2 miss latency in cycles",
        (_per_node("node{node}.miss_latency"),),
    ),
    MetricSpec(
        "repro_run_invariant_checks", GAUGE, "Coherence invariant checks run",
        (({}, "run.invariant_checks", "invariant_checks"),),
    ),
    MetricSpec("repro_commits_total", COUNTER, "Committed micro-ops by kind", (
        _per_node("core{node}.commit.load", "loads", kind="load"),
        _per_node("core{node}.commit.store", "stores", kind="store"),
        _per_node("core{node}.commit.larx", "larx", kind="larx"),
        _per_node("core{node}.commit.stcx", "stcx", kind="stcx"),
        _per_node("core{node}.commit.alu", "alu", kind="alu"),
        _per_node("core{node}.commit.sync", kind="sync"),
        _per_node("core{node}.commit.isync", kind="isync"),
        _per_node("core{node}.commit.end", kind="end"),
    )),
    MetricSpec(
        "repro_update_silent_stores_total", COUNTER,
        "Stores that wrote the value already in a valid line",
        (_per_node("node{node}.stores.update_silent", "us_stores"),),
    ),
    MetricSpec(
        "repro_lvp_predictions_total", COUNTER,
        "Speculative value deliveries from stale lines",
        (_per_node("node{node}.lvp.predictions", "lvp_predictions"),),
    ),
    MetricSpec(
        "repro_lvp_resolutions_total", COUNTER,
        "LVP speculative deliveries by resolution outcome", (
            _per_node("node{node}.lvp.correct", "lvp_correct", outcome="verified"),
            _per_node("node{node}.lvp.mispredictions", "lvp_mispredictions",
                      outcome="squashed"),
        ),
    ),
    MetricSpec(
        "repro_ts_stores_total", COUNTER, "Temporally silent stores detected",
        (_per_node("ctrl{node}.ts_stores", "ts_stores"),),
    ),
    MetricSpec("repro_validates_total", COUNTER, "Validate broadcasts by outcome", (
        _per_node("ctrl{node}.validates_broadcast", "validates_broadcast",
                  outcome="broadcast"),
        _per_node("ctrl{node}.validates_suppressed", "validates_suppressed",
                  outcome="suppressed"),
        _per_node("ctrl{node}.validates_cancelled", outcome="cancelled"),
    )),
    MetricSpec(
        "repro_revalidations_total", COUNTER,
        "T-state copies re-installed by a remote validate",
        (_per_node("ctrl{node}.revalidations", "revalidations"),),
    ),
    MetricSpec(
        "repro_validate_reuse_distance", HISTOGRAM,
        "Cycles from revalidation to next local touch",
        (_per_node("ctrl{node}.validate_reuse_distance"),),
    ),
    MetricSpec(
        "repro_predictor_ts_detects_total", COUNTER,
        "Temporal-silence detections observed by the predictor",
        (_per_node("ctrl{node}.predictor.ts_detects"),),
    ),
    MetricSpec(
        "repro_predictor_decisions_total", COUNTER,
        "Predictor validate decisions at TS detect", (
            _per_node("ctrl{node}.predictor.validates_sent", decision="send"),
            _per_node("ctrl{node}.predictor.validates_suppressed", decision="suppress"),
        ),
    ),
    # A validate was useful when a remote request consumed the silent
    # value or the upgrade's snoop response asserted sharing, useless
    # when the snoop response denied it.
    MetricSpec(
        "repro_predictor_transitions_total", COUNTER,
        "Predictor confidence transitions by cause", (
            _per_node("ctrl{node}.predictor.useful_by_external_req",
                      "validates_useful", cause="external_request"),
            _per_node("ctrl{node}.predictor.useful_by_snoop_response",
                      "validates_useful", cause="useful_snoop"),
            _per_node("ctrl{node}.predictor.useless_by_snoop_response",
                      "validates_useless", cause="useless_snoop"),
        ),
    ),
    MetricSpec(
        "repro_sle_candidates_total", COUNTER, "Elidable lock-acquire candidates",
        (_per_node("sle{node}.candidates", "sle_candidates"),),
    ),
    MetricSpec(
        "repro_sle_attempts_total", COUNTER, "Elision attempts started",
        (_per_node("sle{node}.attempts", "sle_attempts"),),
    ),
    MetricSpec(
        "repro_sle_commits_total", COUNTER, "Elided regions committed atomically",
        (_per_node("sle{node}.successes", "sle_successes"),),
    ),
    MetricSpec(
        "repro_sle_confidence_filtered_total", COUNTER,
        "Candidates skipped by the elision confidence filter",
        (_per_node("sle{node}.filtered_by_confidence", "sle_filtered_by_confidence"),),
    ),
    MetricSpec(
        "repro_sle_restarts_total", COUNTER, "Conflict-aborted regions re-elided",
        (_per_node("sle{node}.restarts", "sle_restarts"),),
    ),
    MetricSpec(
        "repro_sle_fallbacks_total", COUNTER,
        "Elisions abandoned for a real lock acquisition",
        (_per_node("sle{node}.fallback_acquisitions", "sle_fallback_acquisitions"),),
    ),
    MetricSpec("repro_sle_aborts_total", COUNTER, "Elision aborts by reason", (
        _per_node("sle{node}.failure.no_release", "sle_fail_no_release",
                  reason="no_release"),
        _per_node("sle{node}.failure.conflict", "sle_fail_conflict", reason="conflict"),
        _per_node("sle{node}.failure.serialize", "sle_fail_serialize",
                  reason="serialize"),
        _per_node("sle{node}.failure.nested", "sle_fail_nested", reason="nested"),
    )),
    MetricSpec("repro_run_cycles", GAUGE, "Simulated cycles", (({}, "run.cycles", None),)),
    MetricSpec("repro_run_committed", GAUGE, "Committed micro-ops", (({}, "run.committed", None),)),
    MetricSpec("repro_run_ipc", GAUGE, "Committed micro-ops per cycle", (({}, "run.ipc", None),)),
    MetricSpec("repro_run_events", GAUGE, "Scheduler events fired", (({}, "run.events", None),)),
)


def run_series(
    n_procs: int, network: str = "",
) -> Iterator[tuple[MetricSpec, dict[str, str], str, str | None]]:
    """Every :data:`RUN_METRICS` series of an ``n_procs``-node run, in
    table order: ``(spec, labels, stats key, summary field)`` with
    ``{node}`` and ``{network}`` filled in."""
    for spec in RUN_METRICS:
        for labels, key, field in spec.series:
            for node in range(n_procs) if "{node}" in key else (None,):
                values = {
                    k: v.format(node=node, network=network) for k, v in labels.items()
                }
                yield spec, values, key.format(node=node), field


def run_metrics(stats: StatsRegistry, config: "MachineConfig") -> MetricsRegistry:
    """The :data:`RUN_METRICS` view of one finished run's ``stats``.

    Counter series carry the stats value (``0.0`` for a declared
    counter nothing incremented); histogram series share the stats
    :class:`~repro.common.stats.Histogram` objects; the ``repro_run_*``
    gauges read the ``run.*`` summary the system records at the end.
    """
    registry = MetricsRegistry()
    for spec, labels, stat, _field in run_series(
        config.n_procs, config.interconnect.value,
    ):
        if spec.kind == HISTOGRAM:
            hist = stats.get_histogram(stat)
            if hist is not None:
                registry.histogram(spec.name, spec.help, tuple(labels)).attach(
                    hist, **labels,
                )
        elif spec.kind == GAUGE:
            family = registry.gauge(spec.name, spec.help, tuple(labels))
            family.labels(**labels).set(stats.get(stat, 0.0))
        elif stats.declared(stat):
            family = registry.counter(spec.name, spec.help, tuple(labels))
            family.labels(**labels).inc(stats.get(stat, 0.0))
    return registry
