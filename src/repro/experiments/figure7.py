"""Figure 7 — performance comparison of application benchmarks.

For every benchmark and every technique combination, speedup over the
MOESI baseline (runtime ratio, paired per seed) with 95% confidence
intervals from the Alameldeen–Wood style perturbation runs.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.analysis.variability import ConfidenceInterval, speedup_ci
from repro.experiments.runner import MatrixRunner
from repro.system.techniques import ALL_TECHNIQUES
from repro.workloads.registry import BENCHMARKS

DEFAULT_SEEDS = (1, 2, 3)

#: Techniques shown in the figure (everything except the baseline).
FIGURE7_TECHNIQUES = tuple(t for t in ALL_TECHNIQUES if t != "base")


def speedups(
    runner: MatrixRunner,
    benchmarks=None,
    techniques=FIGURE7_TECHNIQUES,
    seeds=DEFAULT_SEEDS,
) -> dict[str, dict[str, ConfidenceInterval]]:
    """Speedup CI per (benchmark, technique), paired by seed."""
    out: dict[str, dict[str, ConfidenceInterval]] = {}
    for benchmark in benchmarks or BENCHMARKS:
        base_cycles = [c["cycles"] for c in runner.cells(benchmark, "base", seeds)]
        out[benchmark] = {}
        for technique in techniques:
            cyc = [c["cycles"] for c in runner.cells(benchmark, technique, seeds)]
            out[benchmark][technique] = speedup_ci(base_cycles, cyc)
    return out


def render(results: dict[str, dict[str, ConfidenceInterval]]) -> str:
    """Render the speedup matrix as a table of 'speedup ± ci'."""
    techniques = list(next(iter(results.values())).keys())
    headers = ["Benchmark", *techniques]
    rows = []
    for benchmark, per_tech in results.items():
        row = [benchmark]
        for technique in techniques:
            ci = per_tech[technique]
            row.append(f"{ci.mean:.3f}±{ci.half_width:.3f}")
        rows.append(row)
    return render_table(
        headers, rows,
        title="Figure 7: Speedup over baseline (runtime ratio, 95% CI)",
    )


def render_chart(results: dict[str, dict[str, ConfidenceInterval]]) -> str:
    """Render the speedups as grouped horizontal bars (the paper's
    figure layout: one group per benchmark, one bar per technique)."""
    from repro.analysis.report import render_grouped_bars

    benchmarks = list(results)
    techniques = list(next(iter(results.values())).keys())
    series = {
        tech: [results[b][tech].mean for b in benchmarks]
        for tech in techniques
    }
    return (
        "Figure 7 (bars): speedup over baseline = 1.000\n\n"
        + render_grouped_bars(benchmarks, series, unit="x", baseline=1.0)
    )


def run(scale: float = 1.0, seeds=DEFAULT_SEEDS, results_dir="results",
        benchmarks=None, techniques=FIGURE7_TECHNIQUES, verbose=True,
        chart: bool = False, claims: bool = True,
        workers: int | None = None) -> str:
    """Run the full matrix and return the rendered figure.

    ``workers`` > 1 runs the unstored cells (baseline included) in a
    process pool; results are identical to the serial run.
    With ``claims`` (and a full benchmark/technique matrix), the
    paper's qualitative findings are evaluated against the measured
    speedups and reported claim by claim.
    """
    runner = MatrixRunner(scale=scale, results_dir=results_dir, verbose=verbose,
                          workers=workers)
    runner.run_matrix(benchmarks, ("base", *techniques), seeds)
    results = speedups(runner, benchmarks, techniques, seeds)
    out = render(results)
    if chart:
        out += "\n\n" + render_chart(results)
    if claims and benchmarks is None and set(techniques) >= {
        "mesti", "emesti", "lvp", "sle", "emesti+lvp",
    }:
        from repro.analysis.claims import evaluate_claims, matrix_from_speedups

        out += "\n\n" + evaluate_claims(matrix_from_speedups(results)).render()
    return out


if __name__ == "__main__":
    print(run())
