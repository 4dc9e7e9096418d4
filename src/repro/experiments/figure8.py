"""Figure 8 — address transactions for application benchmarks.

For every benchmark and technique, address-network transactions
normalized to the baseline, broken into Read+ReadX (data), Upgrade, and
Validate — the decomposition the paper uses to show how useless
validates inflate plain MESTI's traffic and how E-MESTI's predictor
recovers it.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.experiments.runner import MatrixRunner
from repro.experiments.figure7 import DEFAULT_SEEDS, FIGURE7_TECHNIQUES
from repro.workloads.registry import BENCHMARKS


def transaction_breakdown(
    runner: MatrixRunner, benchmarks=None,
    techniques=("base",) + FIGURE7_TECHNIQUES, seeds=DEFAULT_SEEDS,
) -> dict[str, dict[str, dict[str, float]]]:
    """Mean per-kind transaction counts, normalized to baseline total."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for benchmark in benchmarks or BENCHMARKS:
        base_cells = runner.cells(benchmark, "base", seeds)
        base_total = sum(c["txn_total"] for c in base_cells) / len(base_cells)
        out[benchmark] = {}
        for technique in techniques:
            cells = runner.cells(benchmark, technique, seeds)
            mean = lambda k: sum(c[k] for c in cells) / len(cells)
            out[benchmark][technique] = {
                "data": (mean("txn_read") + mean("txn_readx")) / base_total,
                "upgrade": mean("txn_upgrade") / base_total,
                "validate": mean("txn_validate") / base_total,
                "writeback": mean("txn_writeback") / base_total,
                "total": mean("txn_total") / base_total,
            }
    return out


def render(results: dict[str, dict[str, dict[str, float]]]) -> str:
    """Render collected results as a text table."""
    headers = ["Benchmark", "Technique", "Read/ReadX", "Upgrade", "Validate",
               "Writeback", "Total"]
    rows = []
    for benchmark, per_tech in results.items():
        for technique, parts in per_tech.items():
            rows.append([
                benchmark, technique,
                round(parts["data"], 3), round(parts["upgrade"], 3),
                round(parts["validate"], 3), round(parts["writeback"], 3),
                round(parts["total"], 3),
            ])
    return render_table(
        headers, rows,
        title="Figure 8: Address transactions normalized to Baseline",
    )


def run(scale: float = 1.0, seeds=DEFAULT_SEEDS, results_dir="results",
        benchmarks=None, verbose=True, workers: int | None = None) -> str:
    """Run the experiment and return the rendered text.

    ``workers`` > 1 runs the unstored matrix cells in a process pool.
    """
    runner = MatrixRunner(scale=scale, results_dir=results_dir, verbose=verbose,
                          workers=workers)
    runner.run_matrix(benchmarks, ("base",) + FIGURE7_TECHNIQUES, seeds)
    return render(transaction_breakdown(runner, benchmarks, seeds=seeds))


if __name__ == "__main__":
    print(run())
