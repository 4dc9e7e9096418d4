"""Provenance analyzer: attribution, reconciliation, the explain gate."""

import dataclasses
import json

import pytest

from repro.common.config import InterconnectKind, scaled_config
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import (
    MISS_CLASSES,
    analyze_events,
    line_chain,
    reconcile,
    reconciliation_ok,
    render_provenance,
)
from repro.obs.tracer import Tracer
from repro.system.system import System
from repro.system.techniques import configure_technique
from repro.workloads.registry import get_benchmark


def _traced_run(technique="emesti+lvp", scale=0.2, seed=1, procs=4,
                interconnect=InterconnectKind.BUS):
    base = dataclasses.replace(
        scaled_config(n_procs=procs), interconnect=interconnect
    )
    config = configure_technique(base, technique)
    tracer = Tracer()
    system = System(
        config, get_benchmark("locks", scale=scale), seed=seed, tracer=tracer,
    )
    return tracer, system.run().metrics


@pytest.fixture(scope="module")
def locks_run():
    return _traced_run()


class TestAcceptance:
    """ISSUE acceptance: >=95% attribution and exact validate totals."""

    def test_attribution_rate_on_locks(self, locks_run):
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        assert report.comm_misses > 0, "locks must produce comm misses"
        assert report.attribution_rate >= 0.95

    def test_validate_totals_reconcile_exactly(self, locks_run):
        tracer, metrics = locks_run
        report = analyze_events(tracer.events)
        rows = {r["name"]: r for r in reconcile(report, metrics)}
        for name in ("validates.broadcast", "validates.suppressed",
                     "validates.cancelled", "validates.useful",
                     "validates.useless", "revalidations"):
            assert rows[name]["ok"], (
                f"{name}: trace={rows[name]['trace']} "
                f"!= counter={rows[name]['counter']}"
            )

    def test_miss_totals_reconcile_exactly(self, locks_run):
        tracer, metrics = locks_run
        report = analyze_events(tracer.events)
        assert reconciliation_ok(reconcile(report, metrics))

    def test_spans_balanced_on_full_run(self, locks_run):
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        assert report.spans["open"] == 0
        assert report.spans["truncated"] == 0


class TestAcceptanceOnDirectory:
    """Attribution and exact reconciliation over the directory's grants.

    Span balance is checked on the bus only: a run ends when its last
    core finishes, and a validate still on its hop to the home then
    never grants, so its span stays open.
    """

    @pytest.fixture(scope="class")
    def locks_run(self):
        return _traced_run(interconnect=InterconnectKind.DIRECTORY)

    test_attribution_rate_on_locks = TestAcceptance.test_attribution_rate_on_locks
    test_validate_totals_reconcile_exactly = (
        TestAcceptance.test_validate_totals_reconcile_exactly
    )
    test_miss_totals_reconcile_exactly = TestAcceptance.test_miss_totals_reconcile_exactly


class TestClassification:
    def test_classes_partition_comm_misses(self, locks_run):
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        assert sum(report.comm_classes.values()) == report.comm_misses
        assert set(report.comm_classes) <= set(MISS_CLASSES)

    def test_lvp_class_present_with_lvp(self, locks_run):
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        assert report.comm_classes.get("lvp", 0) > 0

    def test_tss_subclasses_follow_technique(self):
        # Under the base protocol no validate machinery acts, so every
        # temporally-silent comm miss must land in tss.unexploited.
        tracer, _ = _traced_run(technique="base")
        report = analyze_events(tracer.events)
        assert report.comm_classes.get("tss.validated", 0) == 0
        assert report.comm_classes.get("tss.suppressed", 0) == 0

    def test_histograms_populated_under_emesti(self, locks_run):
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        assert report.ivd["count"] > 0
        assert report.ivd["min"] >= 1  # a silent pair needs >=1 divergence
        total = report.silence_lifetime["count"] + report.silence_lifetime["censored"]
        assert total == report.ivd["count"]

    def test_per_line_tallies_sum_to_totals(self, locks_run):
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        assert sum(lp.comm for lp in report.lines.values()) == report.comm_misses
        assert sum(lp.misses for lp in report.lines.values()) == report.misses_total

    def test_line_chain_is_chronological(self, locks_run):
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        base = report.top_lines(1)[0].base
        chain = line_chain(tracer.events, base, limit=50)
        assert chain and all(e["base"] == base for e in chain)
        assert [e["ts"] for e in chain] == sorted(e["ts"] for e in chain)


class TestReporting:
    def test_to_json_is_serializable(self, locks_run):
        tracer, metrics = locks_run
        report = analyze_events(tracer.events)
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["schema"] == 1
        assert doc["misses"]["attribution_rate"] >= 0.95
        assert doc["top_lines"]

    def test_render_text_mentions_reconciliation(self, locks_run):
        tracer, metrics = locks_run
        report = analyze_events(tracer.events)
        text = render_provenance(report, reconcile(report, metrics))
        assert "miss provenance" in text
        assert "metrics reconciliation" in text
        assert "MISMATCH" not in text

    def test_cell_summary_is_compact(self, locks_run):
        tracer, _ = locks_run
        summary = analyze_events(tracer.events).cell_summary()
        assert set(summary) == {
            "comm_misses", "attributed", "attribution_rate",
            "classes", "validates", "spans",
        }


class TestReconcileFailureDetection:
    def test_mismatch_is_detected(self, locks_run):
        # A doctored registry (one missing broadcast) must not pass.
        tracer, _ = locks_run
        report = analyze_events(tracer.events)
        doctored = MetricsRegistry()
        rows = reconcile(report, doctored)
        assert not reconciliation_ok(rows)


class TestRunnerProvenance:
    def test_run_cell_attaches_cell_summary(self):
        from repro.experiments.runner import run_cell
        from repro.system.techniques import configure_technique as ct

        config = configure_technique(scaled_config(n_procs=4), "emesti")
        summary = run_cell(config, "locks", 0.05, 1, True)
        prov = summary["provenance"]
        assert prov["comm_misses"] >= 0
        assert prov["spans"]["open"] == 0

    def test_untraced_summary_identical(self):
        from repro.experiments.runner import run_cell

        config = configure_technique(scaled_config(n_procs=4), "emesti")
        traced = run_cell(config, "locks", 0.05, 1, True)
        plain = run_cell(config, "locks", 0.05, 1)
        assert "provenance" not in plain
        strip = ("provenance", "wall_seconds", "worker", "retries")
        assert {k: v for k, v in traced.items() if k not in strip} == \
               {k: v for k, v in plain.items() if k not in strip}

    def test_manifest_records_provenance(self, tmp_path):
        from repro.experiments.runner import MatrixRunner

        runner = MatrixRunner(
            scaled_config(n_procs=4), scale=0.05, results_dir=tmp_path,
            verbose=False, provenance=True,
        )
        runner.run_matrix(
            benchmarks=["locks"], techniques=["emesti"], seeds=(1,)
        )
        cell = runner.manifest.cells["locks|emesti|1"]
        assert "provenance" in cell
        assert cell["provenance"]["attribution_rate"] >= 0.95

    def test_pooled_sweep_records_the_serial_provenance(self, tmp_path):
        import os

        from repro.experiments.runner import MatrixRunner

        def sweep(workers):
            runner = MatrixRunner(
                scaled_config(n_procs=4), scale=0.05,
                results_dir=tmp_path / f"workers{workers}", verbose=False,
                workers=workers, provenance=True,
            )
            runner.run_matrix(
                benchmarks=["locks"], techniques=["emesti", "emesti+lvp"],
                seeds=(1,),
            )
            return runner.manifest.cells

        serial, pooled = sweep(None), sweep(2)
        assert list(pooled) == list(serial)
        for key, cell in pooled.items():
            assert cell["worker"] != os.getpid(), key
            assert cell["provenance"] == serial[key]["provenance"], key

    def test_untraced_manifest_has_no_provenance_key(self, tmp_path):
        from repro.experiments.runner import MatrixRunner

        runner = MatrixRunner(
            scaled_config(n_procs=4), scale=0.05, results_dir=tmp_path,
            verbose=False,
        )
        runner.run_matrix(
            benchmarks=["locks"], techniques=["emesti"], seeds=(1,)
        )
        assert "provenance" not in runner.manifest.cells["locks|emesti|1"]
