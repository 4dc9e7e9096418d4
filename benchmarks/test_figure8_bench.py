"""Figure 8 — address transactions normalized to baseline."""

import pytest

from repro.experiments.figure8 import render, transaction_breakdown
from repro.experiments.runner import MatrixRunner

from benchmarks.conftest import BENCH_SCALE, BENCH_SEEDS, BENCH_WORKERS

BENCHMARKS = ("specjbb", "tpc-b")
TECHNIQUES = ("base", "mesti", "emesti")


def test_figure8_bench(benchmark, tmp_path):
    runner = MatrixRunner(
        scale=BENCH_SCALE, results_dir=tmp_path, verbose=False,
        workers=BENCH_WORKERS,
    )

    def regenerate():
        if BENCH_WORKERS:
            runner.run_matrix(BENCHMARKS, TECHNIQUES, BENCH_SEEDS)
        return transaction_breakdown(
            runner, benchmarks=BENCHMARKS, techniques=TECHNIQUES, seeds=BENCH_SEEDS
        )

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    print(render(results))

    # The paper's §2.2 claim: unconditional validates add substantial
    # address traffic where sharing is wide or absent...
    assert results["specjbb"]["mesti"]["total"] > 1.3
    assert results["specjbb"]["mesti"]["validate"] > 0.1
    # ...and coherence prediction eliminates most of it.
    assert (
        results["specjbb"]["emesti"]["validate"]
        < results["specjbb"]["mesti"]["validate"] * 0.5
    )
    assert results["specjbb"]["emesti"]["total"] < results["specjbb"]["mesti"]["total"]
    # Baselines normalize to 1 by construction.
    for bench in BENCHMARKS:
        assert results[bench]["base"]["total"] == pytest.approx(1.0)
    # Validates never appear without a T-state protocol.
    for bench in BENCHMARKS:
        assert results[bench]["base"]["validate"] == 0
