"""Figure 7 — per-technique speedups, regenerated at bench scale.

Checks the paper's qualitative results:

* E-MESTI never loses (robust), and beats plain MESTI where validates
  are useless (specjbb).
* Plain MESTI loses badly on specjbb.
* SLE wins clearly on raytrace (precise idiom, conservative lock).
* tpc-b is the most technique-sensitive workload.
"""

import pytest

from repro.experiments.figure7 import render, speedups
from repro.experiments.runner import MatrixRunner

from benchmarks.conftest import BENCH_SCALE, BENCH_SEEDS, BENCH_WORKERS

BENCHMARKS = ("raytrace", "specjbb", "tpc-b")
TECHNIQUES = ("mesti", "emesti", "lvp", "sle", "emesti+lvp")


def test_figure7_bench(benchmark, tmp_path):
    runner = MatrixRunner(
        scale=BENCH_SCALE, results_dir=tmp_path, verbose=False,
        workers=BENCH_WORKERS,
    )

    def regenerate():
        runner.run_matrix(BENCHMARKS, ("base", *TECHNIQUES), BENCH_SEEDS)
        return speedups(
            runner, benchmarks=BENCHMARKS, techniques=TECHNIQUES, seeds=BENCH_SEEDS
        )

    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    print(render(results))

    mean = lambda b, t: results[b][t].mean
    # Plain MESTI's useless validates hurt specjbb...
    assert mean("specjbb", "mesti") < 0.97
    # ...and the E-MESTI predictor recovers to ~baseline.
    assert mean("specjbb", "emesti") > mean("specjbb", "mesti")
    assert mean("specjbb", "emesti") > 0.95
    # SLE is the clear winner on raytrace.
    assert mean("raytrace", "sle") > 1.02
    assert mean("raytrace", "sle") > mean("raytrace", "lvp")
    # tpc-b benefits from producer-side elimination.
    assert mean("tpc-b", "emesti") > 0.97
