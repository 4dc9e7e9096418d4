"""Parallel matrix execution: determinism contract + store robustness.

Covers the non-negotiables of the ``workers=N`` mode:

* a cell run in a worker process produces a summary identical to the
  same cell run serially (modulo the ``NONDETERMINISTIC_FIELDS``), and
  a pooled sweep leaves the process on every host;
* a cell that fails in the pool reruns once in-process;
* cells are stored under a fingerprint of their machine config, a
  damaged cell file is re-run rather than served, and runners sharing
  a results directory see each other's cells.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common.config import BusConfig, scaled_config
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    NONDETERMINISTIC_FIELDS,
    MatrixRunner,
    cell_config,
    cell_fingerprint,
    config_fingerprint,
    map_cells,
    run_cell,
    summaries_equal,
)

SCALE = 0.02
CELL = dict(benchmarks=["radiosity"], techniques=("base",), seeds=(1,))


def cell_path(root, seed=1):
    """Where a default runner stores ``radiosity|base|seed``."""
    config = cell_config(scaled_config(), "base")
    return root / f"{cell_fingerprint(config, 'radiosity', SCALE, seed)}.json"


def status(root, config=None):
    """The manifest status of ``radiosity|base|1`` for a fresh runner."""
    runner = MatrixRunner(
        config=config, scale=SCALE, results_dir=root, verbose=False,
    )
    out = runner.run_matrix(**CELL)
    return runner.manifest.cells["radiosity|base|1"]["status"], out


class TestDeterminism:
    def test_same_cell_twice_serial(self):
        config = cell_config(scaled_config(), "emesti")
        first = run_cell(config, "radiosity", SCALE, 1)
        again = run_cell(config, "radiosity", SCALE, 1)
        assert summaries_equal(first, again)
        # Beyond the helper: every field except wall_seconds is
        # bit-identical, including the float-valued ones.
        for key in first:
            if key not in NONDETERMINISTIC_FIELDS:
                assert first[key] == again[key], key

    def test_serial_vs_process_pool_worker(self, tmp_path):
        runner = MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False)
        config = runner.cell_config("emesti")
        serial = run_cell(config, "radiosity", SCALE, 1)
        with ProcessPoolExecutor(max_workers=1) as pool:
            worker = pool.submit(run_cell, config, "radiosity", SCALE, 1).result()
        assert summaries_equal(serial, worker)

    def test_run_matrix_workers_matches_serial(self, tmp_path, monkeypatch):
        # ``workers=2`` means two processes, whatever the host's cores.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = MatrixRunner(
            scale=SCALE, results_dir=tmp_path / "serial", verbose=False
        ).run_matrix(benchmarks=["radiosity"], techniques=("base", "mesti"),
                     seeds=(1, 2))
        parallel = MatrixRunner(
            scale=SCALE, results_dir=tmp_path / "par", verbose=False, workers=2,
        ).run_matrix(benchmarks=["radiosity"], techniques=("base", "mesti"),
                     seeds=(1, 2))
        # Deterministic result order: same keys in the same order.
        assert list(parallel) == list(serial)
        for key in serial:
            assert serial[key]["worker"] == os.getpid()
            assert parallel[key]["worker"] != os.getpid(), key
            assert summaries_equal(serial[key], parallel[key]), key

    def test_workers_results_are_cached(self, tmp_path):
        runner = MatrixRunner(
            scale=SCALE, results_dir=tmp_path, verbose=False, workers=2,
        )
        runner.run_matrix(**CELL)
        assert json.loads(cell_path(tmp_path).read_text())["summary"]
        assert status(tmp_path)[0] == "cached"

    def test_map_cells_serial_parallel_parity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        config = scaled_config()
        jobs = [(config, "radiosity", SCALE, 1), (config, "radiosity", SCALE, 2)]
        serial = list(map_cells(jobs))
        parallel = list(map_cells(jobs, workers=2))
        assert len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert a["worker"] == os.getpid()
            assert b["worker"] != os.getpid()
            assert summaries_equal(a, b)

    def test_sweep_of_stored_cells_starts_no_pool(self, tmp_path, monkeypatch):
        MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False).run_matrix(**CELL)

        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep with nothing to run started a pool")

        monkeypatch.setattr(runner_module, "warm_pool", no_pool)
        runner = MatrixRunner(
            scale=SCALE, results_dir=tmp_path, verbose=False, workers=2,
        )
        runner.run_matrix(**CELL)
        assert runner.manifest.cells["radiosity|base|1"]["status"] == "cached"


class TestManifest:
    def test_cell_summaries_carry_provenance(self, tmp_path):
        runner = MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False)
        summary = runner.run_one("radiosity", "base", 1)
        assert summary["worker"] > 0  # the producing pid
        assert summary["retries"] == 0

    def test_run_matrix_writes_manifest(self, tmp_path):
        runner = MatrixRunner(
            scale=SCALE, results_dir=tmp_path, verbose=False, workers=2,
        )
        runner.run_matrix(benchmarks=["radiosity"], techniques=("base",),
                          seeds=(1, 2))
        manifest = runner.manifest
        assert set(manifest.cells) == {"radiosity|base|1", "radiosity|base|2"}
        assert manifest.ran == 2 and manifest.cached == 0
        for cell in manifest.cells.values():
            assert cell["status"] == "ran"

    def test_cached_rerun_is_marked_cached(self, tmp_path):
        kwargs = dict(benchmarks=["radiosity"], techniques=("base",), seeds=(1,))
        runner = MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False)
        runner.run_matrix(**kwargs)
        assert runner.manifest.ran == 1
        runner.run_matrix(**kwargs)  # every cell now served from cache
        assert runner.manifest.ran == 0 and runner.manifest.cached == 1
        assert runner.manifest.cells["radiosity|base|1"]["status"] == "cached"


class FakePool:
    """Executor stand-in: each submit answers with the next outcome
    (a summary, or an exception to raise from ``result``); a
    ``broken`` one refuses every task, like a pool whose worker died
    while it was idle."""

    def __init__(self, *outcomes, broken=False):
        self.outcomes = list(outcomes)
        self.broken = broken
        self.submitted = []
        self.shut_down = False

    def submit(self, fn, *args):
        if self.broken:
            raise BrokenProcessPool("a worker died while the pool was idle")
        self.submitted.append(args)
        future = Future()
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(dict(outcome))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


JOBS = [("config", "x", SCALE, 1), ("config", "y", SCALE, 2)]


class TestRetry:
    """``map_cells`` over a fake pool: one in-process rerun per failed cell."""

    @pytest.fixture(autouse=True)
    def reran(self, monkeypatch):
        """Cells rerun in-process answer ``cycles: 7``; the jobs rerun."""
        jobs = []
        monkeypatch.setattr(
            runner_module, "run_cell",
            lambda *job: jobs.append(job) or {"cycles": 7, "retries": 0},
        )
        return jobs

    @staticmethod
    def install(monkeypatch, *outcomes):
        """Put a fake pool behind ``warm_pool(2)``."""
        pool = FakePool(*outcomes)
        monkeypatch.setitem(runner_module._WARM_POOLS, (2, None), pool)
        return pool

    def test_failed_cell_reruns_once_in_process(self, monkeypatch, reran, caplog):
        pool = self.install(
            monkeypatch, RuntimeError("boom"), {"cycles": 8, "retries": 0},
        )
        with caplog.at_level(logging.WARNING, logger="repro.runner"):
            out = list(map_cells(JOBS, workers=2))
        assert pool.submitted == JOBS  # one task per cell
        assert reran == JOBS[:1]  # only the failed cell reran
        # The rerun is marked so the extra attempt is visible in the store.
        assert out == [{"cycles": 7, "retries": 1}, {"cycles": 8, "retries": 0}]
        assert caplog.text.count("rerunning it in-process") == 1
        assert "x|scale0.02|seed1" in caplog.text
        assert "RuntimeError('boom')" in caplog.text
        # A cell's own failure leaves the pool in service.
        assert runner_module._WARM_POOLS[(2, None)] is pool
        assert not pool.shut_down

    def test_second_failure_propagates(self, monkeypatch):
        self.install(monkeypatch, RuntimeError("boom"), {"cycles": 8, "retries": 0})

        def still_failing(*job):
            raise RuntimeError("still failing")

        monkeypatch.setattr(runner_module, "run_cell", still_failing)
        with pytest.raises(RuntimeError, match="still failing"):
            list(map_cells(JOBS, workers=2))

    def assert_rerun_and_retired(self, monkeypatch, reran, loss):
        pool = self.install(monkeypatch, loss, loss)
        out = list(map_cells(JOBS, workers=2))
        assert reran == JOBS  # every cell reran in-process
        assert out == [{"cycles": 7, "retries": 1}] * 2
        # The next sweep gets a fresh pool: a timed-out task may still
        # hold a worker, and a broken pool takes no more tasks.
        assert (2, None) not in runner_module._WARM_POOLS
        assert pool.shut_down

    def test_broken_executor_retries_in_process(self, monkeypatch, reran):
        self.assert_rerun_and_retired(
            monkeypatch, reran, BrokenProcessPool("pool died"),
        )

    def test_timeout_retires_the_pool(self, monkeypatch, reran):
        self.assert_rerun_and_retired(monkeypatch, reran, TimeoutError())

    def test_pool_broken_while_idle_is_replaced(self, monkeypatch, reran):
        idle = FakePool(broken=True)
        monkeypatch.setitem(runner_module._WARM_POOLS, (2, None), idle)
        fresh = FakePool({"cycles": 8, "retries": 0}, {"cycles": 9, "retries": 0})
        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", lambda **kwargs: fresh,
        )
        out = list(map_cells(JOBS, workers=2))
        assert idle.shut_down
        assert runner_module._WARM_POOLS[(2, None)] is fresh
        assert fresh.submitted == JOBS
        assert reran == []  # nothing failed once the tasks were taken
        assert out == [{"cycles": 8, "retries": 0}, {"cycles": 9, "retries": 0}]


class TestConfigFingerprint:
    def test_fingerprint_sensitive_to_config(self):
        base = scaled_config()
        custom = dataclasses.replace(base, bus=BusConfig(addr_latency=99))
        assert config_fingerprint(base) != config_fingerprint(custom)
        assert config_fingerprint(base) == config_fingerprint(scaled_config())

    def test_custom_config_does_not_reuse_default_cache(self, tmp_path):
        default = MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False)
        cached = default.run_one("radiosity", "base", 1)
        custom_config = dataclasses.replace(
            scaled_config(), bus=BusConfig(addr_latency=99, data_latency=200)
        )
        state, out = status(tmp_path, custom_config)
        assert state == "ran"  # another config's cell is never served
        assert not summaries_equal(cached, out["radiosity|base|1"])
        # Each config's cell stays stored under its own key.
        assert status(tmp_path) == ("cached", {"radiosity|base|1": cached})
        assert status(tmp_path, custom_config)[0] == "cached"

    def test_old_per_scale_cache_is_not_read(self, tmp_path):
        legacy = {"radiosity|base|1": {"cycles": 123, "ipc": 1.0}}
        (tmp_path / f"matrix_scale{SCALE}.json").write_text(json.dumps(legacy))
        state, out = status(tmp_path)
        assert state == "ran"
        assert out["radiosity|base|1"]["cycles"] != 123


class TestCorruptCache:
    def test_truncated_cache_recovers(self, tmp_path, caplog):
        # A torn cell file is a miss: re-run, rewritten whole, never served.
        expected = MatrixRunner(
            scale=SCALE, results_dir=tmp_path, verbose=False,
        ).run_one("radiosity", "base", 1)
        path = cell_path(tmp_path)
        path.write_text(path.read_text()[:200])
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            state, out = status(tmp_path)
        assert state == "ran"
        assert "damaged" in caplog.text
        assert summaries_equal(out["radiosity|base|1"], expected)
        assert json.loads(path.read_text())["summary"] == out["radiosity|base|1"]

    def test_non_object_root_recovers(self, tmp_path):
        cell_path(tmp_path).write_text("[1, 2, 3]")
        assert status(tmp_path)[0] == "ran"

    def test_runner_still_usable_after_recovery(self, tmp_path):
        cell_path(tmp_path).write_text("not json at all")
        runner = MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False)
        summary = runner.run_one("radiosity", "base", 1)
        assert summary["cycles"] > 0
        assert json.loads(cell_path(tmp_path).read_text())["summary"] == summary


class TestConcurrentFlush:
    def test_two_runners_sharing_a_cache_merge(self, tmp_path):
        # Both constructed before either stores a cell.
        a = MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False)
        b = MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False)
        a.run_one("radiosity", "base", 1)
        b.run_one("radiosity", "base", 2)
        a.run_matrix(benchmarks=["radiosity"], techniques=("base",), seeds=(2,))
        b.run_matrix(**CELL)
        assert a.manifest.cached == 1 and b.manifest.cached == 1
        assert cell_path(tmp_path, 1).exists() and cell_path(tmp_path, 2).exists()

    def test_no_lock_file_left_behind(self, tmp_path):
        MatrixRunner(scale=SCALE, results_dir=tmp_path, verbose=False).run_matrix(**CELL)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [cell_path(tmp_path).name]
