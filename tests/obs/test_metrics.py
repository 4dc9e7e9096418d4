"""The metrics registry: families, labels, exports, and the run view.

The load-bearing contracts:

* :func:`run_metrics` reads every series from the stats key
  :data:`RUN_METRICS` names, so a run's export and the ``summarize()``
  fields the figures read come from one store;
* the view exports exactly the series the components declared: a
  counter handle nothing incremented is exported at zero without
  creating its stats key, and a component that was never built
  (SLE off) exports no family;
* each summary field is the sum of the export series whose table row
  names it;
* the table and a full run's declarations match both ways: every
  stats key in the table is one the run declares, so a renamed
  counter cannot silently drop out of the export, and every key the
  run declares has a row, so a new counter cannot either.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.common.config import InterconnectKind, scaled_config
from repro.common.stats import StatsRegistry
from repro.obs.metrics import (
    COUNTER,
    HISTOGRAM,
    RUN_METRICS,
    MetricsRegistry,
    run_metrics,
    run_series,
)


class TestRegistry:
    def test_counter_family_and_series(self):
        m = MetricsRegistry()
        fam = m.counter("repro_widgets_total", "Widgets", labels=("kind",))
        fam.labels(kind="a").inc()
        fam.labels(kind="a").inc(2)
        fam.labels(kind="b").inc()
        assert m.get("repro_widgets_total", kind="a") == 3
        assert m.get("repro_widgets_total", kind="b") == 1
        assert m.total("repro_widgets_total") == 4

    def test_total_sums_the_series_matching_labels(self):
        m = MetricsRegistry()
        fam = m.counter("repro_widgets_total", labels=("node", "kind"))
        fam.labels(node=0, kind="a").inc(1)
        fam.labels(node=1, kind="a").inc(2)
        fam.labels(node=1, kind="b").inc(4)
        assert m.total("repro_widgets_total", kind="a") == 3
        assert m.total("repro_widgets_total", node=1) == 6
        assert m.total("repro_widgets_total", node=1, kind="b") == 4
        assert m.total("repro_widgets_total", kind="c") == 0
        assert m.total("repro_widgets_total", color="red") == 0

    def test_reregistration_is_idempotent(self):
        m = MetricsRegistry()
        first = m.counter("repro_x_total", "X", labels=("node",))
        again = m.counter("repro_x_total", labels=("node",))
        assert again is first
        assert again.help == "X"  # help survives a bare re-registration

    def test_conflicting_reregistration_raises(self):
        m = MetricsRegistry()
        m.counter("repro_x_total", labels=("node",))
        with pytest.raises(ValueError, match="already registered"):
            m.gauge("repro_x_total", labels=("node",))
        with pytest.raises(ValueError, match="already registered"):
            m.counter("repro_x_total", labels=("other",))

    def test_invalid_names_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            m.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            m.counter("repro_ok_total", labels=("bad-label",))

    def test_label_kwargs_must_match_family(self):
        m = MetricsRegistry()
        fam = m.counter("repro_x_total", labels=("node",))
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels(node=0, extra=1)
        with pytest.raises(ValueError, match="takes labels"):
            fam.labels()

    def test_label_values_are_stringified(self):
        m = MetricsRegistry()
        fam = m.counter("repro_x_total", labels=("node",))
        fam.labels(node=3).inc()
        assert m.get("repro_x_total", node="3") == 1
        assert fam.labels(node="3").value == 1

    def test_missing_series_reads_zero(self):
        m = MetricsRegistry()
        assert m.get("repro_never_registered") == 0.0
        assert m.total("repro_never_registered") == 0.0
        m.counter("repro_x_total", labels=("node",))
        assert m.get("repro_x_total", node=9) == 0.0


    def test_view_series_reads_its_source_at_export(self):
        registry = MetricsRegistry()
        source = {"events": 0}
        family = registry.counter("ring_dropped_total", "h", labels=("ring",))
        family.view(lambda: source["events"], ring="events")
        assert "ring_dropped_total{ring=\"events\"} 0" in registry.to_prometheus()
        source["events"] = 3  # no inc: the export reads the source
        assert registry.get("ring_dropped_total", ring="events") == 3
        assert registry.total("ring_dropped_total") == 3
        assert registry.to_json()["series"][0]["value"] == 3
        with pytest.raises(ValueError, match="histogram"):
            registry.histogram("lat", "h").view(lambda: 0)


class TestRunView:
    """run_metrics on hand-built stats: which series exist, what they read."""

    def view(self, stats, **config):
        return run_metrics(stats, dataclasses.replace(scaled_config(n_procs=2), **config))

    def test_counter_series_reads_stats_value(self):
        stats = StatsRegistry()
        handle = stats.scoped("ctrl0").counter("ts_stores")
        handle.inc()
        handle.inc(4)
        view = self.view(stats)
        assert stats.get("ctrl0.ts_stores") == 5
        assert view.get("repro_ts_stores_total", node=0) == 5
        assert view.total("repro_ts_stores_total") == 5

    def test_declared_counter_is_exported_at_zero(self):
        stats = StatsRegistry()
        stats.scoped("ctrl1").counter("ts_stores")
        series = [
            e for e in self.view(stats).to_json()["series"]
            if e["name"] == "repro_ts_stores_total"
        ]
        assert series == [{
            "name": "repro_ts_stores_total", "kind": "counter",
            "help": "Temporally silent stores detected",
            "labels": {"node": "1"}, "value": 0.0,
        }]
        # The key is not created: an untouched counter still reads int 0.
        assert "ctrl1.ts_stores" not in stats
        assert repr(stats.get("ctrl1.ts_stores")) == "0"

    def test_undeclared_components_export_no_family(self):
        names = {f.name for f in self.view(StatsRegistry()).families()}
        assert names == {
            "repro_run_cycles", "repro_run_committed", "repro_run_ipc",
            "repro_run_events", "repro_run_invariant_checks",
        }

    def test_histograms_are_the_stats_objects(self):
        stats = StatsRegistry()
        hist = stats.scoped("node0").histogram("miss_latency")
        hist.record(8)
        hist.record(100)
        view = self.view(stats)
        (entry,) = [
            e for e in view.to_json()["series"]
            if e["name"] == "repro_miss_latency_cycles"
        ]
        assert entry["labels"] == {"node": "0"}
        assert entry["histogram"]["count"] == 2
        hist.record(5)  # shared, not copied
        (entry,) = [
            e for e in view.to_json()["series"]
            if e["name"] == "repro_miss_latency_cycles"
        ]
        assert entry["histogram"]["count"] == 3

    def test_network_label_is_the_interconnect(self):
        stats = StatsRegistry()
        stats.scoped("bus").histogram("queue_depth").record(1)
        view = self.view(stats, interconnect=InterconnectKind.DIRECTORY)
        text = view.to_prometheus()
        assert 'repro_bus_queue_depth_count{network="directory"} 1' in text

    def test_run_gauges_read_the_run_summary(self):
        stats = StatsRegistry()
        stats.set("run.cycles", 200)
        stats.set("run.committed", 150)
        stats.set("run.events", 999)
        view = self.view(stats)
        assert view.get("repro_run_cycles") == 200
        assert view.get("repro_run_committed") == 150
        assert view.get("repro_run_events") == 999
        assert view.get("repro_run_ipc") == 0.0  # no run.ipc without cycles


class TestExports:
    def make(self):
        m = MetricsRegistry()
        fam = m.counter("repro_x_total", "Things counted", labels=("kind",))
        fam.labels(kind="b").inc(2)
        fam.labels(kind="a").inc()
        m.gauge("repro_level").labels().set(7)
        m.histogram("repro_lat", "Lat", labels=("node",)).labels(node=0).record(3, 2)
        return m

    def test_to_json_is_sorted_and_diffable(self):
        doc = self.make().to_json()
        assert doc["schema"] == 1
        names = [(e["name"], tuple(e["labels"].values())) for e in doc["series"]]
        assert names == sorted(names)
        json.dumps(doc)  # must be JSON-safe

    def test_prometheus_text_format(self):
        text = self.make().to_prometheus()
        assert "# HELP repro_x_total Things counted" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{kind="a"} 1' in text
        assert 'repro_x_total{kind="b"} 2' in text
        assert "# TYPE repro_level gauge" in text
        assert "repro_level 7" in text  # no labels -> bare name
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{node="0",le="+Inf"} 2' in text
        assert 'repro_lat_sum{node="0"} 6' in text
        assert 'repro_lat_count{node="0"} 2' in text
        assert text.endswith("\n")

    def test_prometheus_histogram_buckets_are_cumulative(self):
        m = MetricsRegistry()
        hist = m.histogram("repro_lat", labels=("node",)).labels(node=0)
        for value in (1, 2, 4, 1000):
            hist.record(value)
        text = m.to_prometheus()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_lat_bucket")
        ]
        assert counts == sorted(counts)  # cumulative by definition
        assert counts[-1] == 4  # +Inf bucket sees everything

    def test_label_value_escaping(self):
        m = MetricsRegistry()
        m.counter("repro_x_total", labels=("name",)).labels(
            name='he said "hi"\\\n'
        ).inc()
        text = m.to_prometheus()
        assert '{name="he said \\"hi\\"\\\\\\n"}' in text


def _run(benchmark, technique, scale, **kwargs):
    from repro.system.system import System
    from repro.system.techniques import configure_technique
    from repro.workloads.registry import get_benchmark

    config = configure_technique(scaled_config(), technique)
    return System(config, get_benchmark(benchmark, scale=scale), seed=1, **kwargs).run()


@pytest.fixture(scope="module")
def instrumented_run():
    """One small run: its metrics view plus its summarize() view."""
    from repro.experiments.runner import summarize

    result = _run("radiosity", "emesti+lvp", 0.05)
    return result.metrics, summarize(result), result


class TestRunParity:
    """Metric series vs the summarize() counters the figures read."""

    def test_paper_counters_match_summary(self, instrumented_run):
        """Each summary count is the sum of the export series whose
        table row names its field, and every other summary field comes
        from the result or a merged histogram."""
        metrics, summary, _ = instrumented_run
        sums: dict[str, float] = {}
        for spec in RUN_METRICS:
            for labels, _key, field in spec.series:
                if field is not None:
                    fixed = {k: v for k, v in labels.items() if k != "node"}
                    sums[field] = sums.get(field, 0) + metrics.total(spec.name, **fixed)
        assert {field: summary[field] for field in sums} == sums
        assert set(summary) - set(sums) == {
            "cycles", "committed", "ipc", "wall_seconds",
            "miss_latency_p50", "miss_latency_p95", "miss_latency_p99",
            "miss_latency_mean", "bus_queue_depth_p50", "bus_queue_depth_p95",
            "validate_reuse_p50", "validate_reuse_count",
        }
        assert summary["validates_useful"] > 0  # the run exercises the sums

    def test_validates_by_outcome_match_summary(self, instrumented_run):
        metrics, summary, result = instrumented_run
        n = result.config.n_procs
        for outcome, key in (
            ("broadcast", "validates_broadcast"),
            ("suppressed", "validates_suppressed"),
        ):
            total = sum(
                metrics.get("repro_validates_total", node=i, outcome=outcome)
                for i in range(n)
            )
            assert total == summary[key], outcome

    def test_predictor_transitions_match_summary(self, instrumented_run):
        metrics, summary, result = instrumented_run
        n = result.config.n_procs
        useful = sum(
            metrics.get(
                "repro_predictor_transitions_total", node=i, cause=cause
            )
            for i in range(n)
            for cause in ("external_request", "useful_snoop")
        )
        useless = sum(
            metrics.get(
                "repro_predictor_transitions_total", node=i, cause="useless_snoop"
            )
            for i in range(n)
        )
        assert useful == summary["validates_useful"]
        assert useless == summary["validates_useless"]

    def test_lvp_series_match_summary(self, instrumented_run):
        metrics, summary, _ = instrumented_run
        assert metrics.total("repro_lvp_predictions_total") == summary[
            "lvp_predictions"
        ]
        for outcome, key in (
            ("verified", "lvp_correct"),
            ("squashed", "lvp_mispredictions"),
        ):
            total = sum(
                s.value
                for f in metrics.families()
                if f.name == "repro_lvp_resolutions_total"
                for s in f.series()
                if s.labels["outcome"] == outcome
            )
            assert total == summary[key], outcome

    def test_run_gauges_match_result(self, instrumented_run):
        metrics, _, result = instrumented_run
        assert metrics.get("repro_run_cycles") == result.cycles
        assert metrics.get("repro_run_committed") == result.committed

    def test_result_carries_registry(self, instrumented_run):
        metrics, _, result = instrumented_run
        again = result.metrics
        assert isinstance(again, MetricsRegistry)
        assert again is not metrics  # a fresh view of the same stats
        assert again.to_json() == metrics.to_json()


@pytest.fixture(scope="module")
def full_run():
    """A run with every component built (predictor, LVP, SLE) and the
    invariant checker on."""
    return _run("raytrace", "emesti+lvp+sle", 0.02, check_invariants=True)


def test_every_table_key_is_declared_by_a_full_run(full_run):
    """Each RUN_METRICS key names a counter handle the run declares, a
    histogram it creates or a ``run.*`` entry it sets."""
    stats = full_run.stats
    missing = []
    for spec, _labels, stat, _field in run_series(full_run.config.n_procs):
        if spec.kind == COUNTER:
            found = stats.declared(stat)
        elif spec.kind == HISTOGRAM:
            found = stats.get_histogram(stat) is not None
        else:
            found = stat in stats
        if not found:
            missing.append(stat)
    assert missing == []


def test_every_key_a_full_run_declares_has_a_row(full_run):
    """The converse: no counter handle, histogram or ``run.*`` entry of
    a full run is left out of the export."""
    stats = full_run.stats
    rows = {stat for _spec, _labels, stat, _field in run_series(full_run.config.n_procs)}
    declared = (
        set(stats._declared)
        | {name for name, _hist in stats.histogram_items()}
        | {key for key in stats if key.startswith("run.")}
    )
    assert "run.invariant_checks" in declared
    assert sorted(declared - rows) == []
