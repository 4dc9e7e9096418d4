"""§5.3.1 — SLE elision idiom statistics."""

import pytest

from repro.analysis.report import render_table
from repro.experiments.runner import MatrixRunner
from repro.experiments.sle_idioms import HEADERS, collect

from benchmarks.conftest import BENCH_SCALE, BENCH_SEEDS

BENCHMARKS = ("raytrace", "tpc-b", "specweb")


def test_sle_idiom_stats_bench(benchmark, tmp_path):
    runner = MatrixRunner(
        scale=BENCH_SCALE, results_dir=tmp_path, verbose=False
    )

    def regenerate():
        return collect(runner, benchmarks=BENCHMARKS, seeds=BENCH_SEEDS)

    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    print(render_table(HEADERS, rows, title="SLE idiom statistics"))

    by_name = {row[0]: row for row in rows}
    # raytrace: precise user-level idiom, elisions succeed.
    rt = by_name["raytrace"]
    assert rt[2] > 0 and rt[4] > 0  # attempts, successes
    assert rt[5] > 60  # success/attempt %
    # Commercial workloads: the shared kernel PCs and the non-lock
    # larx/stcx uses (atomic increments) make the idiom imprecise —
    # the confidence predictor filters a large fraction of candidates
    # (the paper's "only ~25% of idioms attempt elision").
    for name in ("tpc-b", "specweb"):
        cand, att = by_name[name][1], by_name[name][2]
        assert cand > 0, name
        assert att < cand * 0.6, name
        # Failed attempts (idiom imprecision and/or conflicts) exist.
        no_release, conflict = by_name[name][6], by_name[name][7]
        assert no_release + conflict > 0, name
