"""Matrix runner: summaries, caching, and the experiment harnesses."""

import json
import pathlib

import pytest

from repro.experiments.runner import (
    NONDETERMINISTIC_FIELDS,
    MatrixRunner,
    cell_config,
    cell_fingerprint,
    run_cell,
    summarize,
)
from repro.system.system import System
from repro.system.techniques import configure_technique
from repro.workloads.registry import get_benchmark


@pytest.fixture(scope="module")
def small_result(tmp_path_factory):
    from repro.common.config import scaled_config

    cfg = configure_technique(scaled_config(), "emesti+lvp")
    wl = get_benchmark("radiosity", scale=0.03)
    return System(cfg, wl, seed=1).run()


class TestSummarize:
    def test_core_fields(self, small_result):
        s = summarize(small_result, wall_seconds=1.234)
        assert s["cycles"] == small_result.cycles
        assert s["committed"] == small_result.committed
        assert s["wall_seconds"] == 1.234
        assert s["ipc"] > 0

    def test_txn_fields_consistent(self, small_result):
        s = summarize(small_result)
        parts = (
            s["txn_read"] + s["txn_readx"] + s["txn_upgrade"]
            + s["txn_validate"] + s["txn_writeback"]
        )
        assert parts == pytest.approx(s["txn_total"])

    def test_op_mix_sums(self, small_result):
        s = summarize(small_result)
        total = s["loads"] + s["stores"] + s["larx"] + s["stcx"] + s["alu"]
        # END/SYNC/ISYNC ops make the committed count slightly larger.
        assert total <= s["committed"]
        assert total > 0.8 * s["committed"]

    def test_json_serializable(self, small_result):
        json.dumps(summarize(small_result))

    @pytest.mark.parametrize("technique", ["base", "emesti+lvp+sle"])
    def test_rerun_reproduces_stored_cell_bytes(self, technique):
        """A stored scale-1.0 cell re-runs to the same JSON, byte for byte.

        ``==`` cannot tell an untouched counter's int ``0`` from ``0.0``;
        the dump can (``ocean|base|1`` stores 21 of its counts as int ``0``).
        """
        from repro.common.config import scaled_config
        from repro.experiments.store import ResultStore

        config = cell_config(scaled_config(), technique)
        store = ResultStore(pathlib.Path(__file__).resolve().parents[2] / "results")
        stored = store.get(cell_fingerprint(config, "ocean", 1.0, 1))["summary"]
        fresh = run_cell(config, "ocean", 1.0, 1)

        def dump(summary):
            return json.dumps(
                {k: v for k, v in summary.items() if k not in NONDETERMINISTIC_FIELDS},
                sort_keys=True,
            )

        assert dump(fresh) == dump(stored)


class TestMatrixRunner:
    def test_cache_round_trip(self, tmp_path):
        runner = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=False)
        first = runner.run_one("radiosity", "base", 1)
        # A second runner instance reads the persisted cache.
        runner2 = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=False)
        again = runner2.run_one("radiosity", "base", 1)
        assert first == again

    def test_construction_touches_no_file(self, tmp_path):
        runner = MatrixRunner(
            scale=0.02, results_dir=tmp_path / "results", verbose=False,
        )
        runner.cell_config("emesti")
        assert list(tmp_path.iterdir()) == []

    def test_key_format(self):
        assert MatrixRunner.key("tpc-b", "emesti+lvp", 3) == "tpc-b|emesti+lvp|3"

    def test_cells_runs_all_seeds(self, tmp_path):
        runner = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=False)
        cells = runner.cells("radiosity", "base", (1, 2))
        assert len(cells) == 2

    def test_run_cell_keeps_system_run_limits(self, monkeypatch):
        """A sweep's cell and ``repro-sim run`` hit the same livelock
        guards, so no cell passes in one and raises in the other."""
        from repro.common.config import scaled_config
        from repro.common.events import Scheduler

        limits = []
        real_run = Scheduler.run

        def spy(self, until=None, max_cycles=None, max_events=None):
            limits.append((max_cycles, max_events))
            return real_run(self, until, max_cycles, max_events)

        monkeypatch.setattr(Scheduler, "run", spy)
        config = cell_config(scaled_config(), "emesti")
        run_cell(config, "locks", 0.02, 1)
        System(config, get_benchmark("locks", scale=0.02), seed=1).run()
        assert len(limits) == 2 and limits[0] == limits[1]


class TestExperimentHarnesses:
    def test_table2_renders(self, tmp_path):
        from repro.experiments import table2

        out = table2.run(scale=0.02, seeds=(1,), results_dir=tmp_path, verbose=False)
        assert "Table 2" in out
        for name in ("ocean", "tpc-b", "specjbb"):
            assert name in out

    def test_figure7_renders(self, tmp_path):
        from repro.experiments import figure7

        out = figure7.run(
            scale=0.02, seeds=(1,), results_dir=tmp_path,
            benchmarks=["radiosity"], techniques=("mesti",), verbose=False,
        )
        assert "Figure 7" in out and "radiosity" in out

    def test_figure8_renders(self, tmp_path):
        from repro.experiments import figure8

        out = figure8.run(
            scale=0.02, seeds=(1,), results_dir=tmp_path,
            benchmarks=["radiosity"], verbose=False,
        )
        assert "Figure 8" in out and "Validate" in out

    def test_figure6_renders(self):
        from repro.experiments import figure6

        out = figure6.run(scale=0.02, seed=1, benchmarks=["radiosity"], verbose=False)
        assert "Figure 6" in out and "ideal" in out

    def test_sle_idioms_renders(self, tmp_path):
        from repro.experiments import sle_idioms

        out = sle_idioms.run(
            scale=0.02, seeds=(1,), results_dir=tmp_path, verbose=False
        )
        assert "Candidates" in out


class TestHistogramSummaryFields:
    def test_distribution_fields_present(self, small_result):
        s = summarize(small_result)
        assert s["miss_latency_p95"] >= s["miss_latency_p50"] > 0
        assert s["miss_latency_p99"] >= s["miss_latency_p95"]
        assert s["miss_latency_mean"] > 0
        assert s["bus_queue_depth_p95"] >= s["bus_queue_depth_p50"] >= 0

    def test_existing_keys_unchanged(self, small_result):
        # The histogram fields are additive: every pre-existing summary
        # key keeps its exact name.
        s = summarize(small_result)
        for key in (
            "cycles", "committed", "ipc", "wall_seconds", "txn_total",
            "miss_total", "loads", "stores", "us_stores", "ts_stores",
            "validates_broadcast", "sle_attempts",
        ):
            assert key in s


class TestBatchedAtomicSave:
    def test_run_one_outside_batch_saves_immediately(self, tmp_path):
        runner = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=False)
        summary = runner.run_one("radiosity", "base", 1)
        (path,) = tmp_path.iterdir()
        assert json.loads(path.read_text()) == {
            "benchmark": "radiosity", "technique": "base", "seed": 1,
            "scale": 0.02, "summary": summary,
        }

    def test_interrupted_batch_still_persists_completed_cells(
        self, tmp_path, monkeypatch,
    ):
        from repro.experiments import runner as runner_module

        real_run_cell = runner_module.run_cell

        def crash_on_seed_2(config, benchmark, scale, seed, *args):
            if seed == 2:
                raise RuntimeError("simulated crash mid-sweep")
            return real_run_cell(config, benchmark, scale, seed, *args)

        monkeypatch.setattr(runner_module, "run_cell", crash_on_seed_2)
        runner = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=False)
        with pytest.raises(RuntimeError):
            runner.run_matrix(
                benchmarks=["radiosity"], techniques=("base",), seeds=(1, 2)
            )
        monkeypatch.undo()
        fresh = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=False)
        fresh.run_matrix(
            benchmarks=["radiosity"], techniques=("base",), seeds=(1, 2)
        )
        assert fresh.manifest.cells["radiosity|base|1"]["status"] == "cached"
        assert fresh.manifest.cells["radiosity|base|2"]["status"] == "ran"

    def test_flush_leaves_no_temp_files(self, tmp_path):
        runner = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=False)
        runner.run_matrix(
            benchmarks=["radiosity"], techniques=("base",), seeds=(1,)
        )
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_logging_progress(self, tmp_path, caplog):
        import logging

        runner = MatrixRunner(scale=0.02, results_dir=tmp_path, verbose=True)
        with caplog.at_level(logging.INFO, logger="repro.runner"):
            runner.run_one("radiosity", "base", 1)
        assert "radiosity" in caplog.text and "ipc=" in caplog.text
