"""Table 2 — benchmark characteristics, regenerated at bench scale."""

import pytest

from repro.analysis.report import render_table
from repro.experiments.runner import MatrixRunner
from repro.experiments.table2 import HEADERS, collect
from repro.workloads.registry import BENCHMARKS

from benchmarks.conftest import BENCH_SCALE, BENCH_SEEDS


def test_table2_bench(benchmark, tmp_path):
    runner = MatrixRunner(
        scale=BENCH_SCALE, results_dir=tmp_path, verbose=False
    )

    def regenerate():
        return collect(runner, seeds=BENCH_SEEDS)

    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    print(render_table(HEADERS, rows, title=f"Table 2 (scale={BENCH_SCALE})"))

    by_name = {row[0]: row for row in rows}
    assert set(by_name) == set(BENCHMARKS)
    for name, row in by_name.items():
        _, instr, uops, loads, stores, us, ts, ipc = row
        assert instr <= uops, name  # cracking expands instructions
        assert 0 < loads < uops and 0 < stores < uops, name
        assert 0 <= us <= stores, name
        assert ts >= 0, name
        assert ipc > 0, name
    # Qualitative Table 2 shape: scientific codes run at higher IPC
    # than the miss-bound commercial ones; specjbb is the lowest.
    sci_ipc = min(by_name[n][-1] for n in ("ocean", "raytrace"))
    assert sci_ipc > by_name["specjbb"][-1]
    # Update-silent stores are a visible fraction everywhere.
    for name in BENCHMARKS:
        stores, us = by_name[name][4], by_name[name][5]
        assert us / stores > 0.01, name
    # Temporally silent stores exist in every workload (lock pairs,
    # flag pulses).
    assert all(by_name[n][6] > 0 for n in BENCHMARKS)
