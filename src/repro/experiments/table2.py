"""Table 2 — basic application benchmark characteristics.

Reproduces the columns of the paper's Table 2 for the synthetic
workload models: instructions (micro-ops × the benchmark's PowerPC
cracking ratio), micro-ops, loads, stores, update-silent stores,
temporally silent stores (those capturable with MESTI), and aggregate
IPC across all processors.

The paper measured counts on the baseline machine with MESTI's
detection capturing the TS column; we run the ``mesti`` technique for
the store-silence columns (detection is count-identical on the
baseline, which also tallies ``ts_stores``) and the ``base`` technique
for IPC.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.experiments.runner import MatrixRunner
from repro.workloads.registry import BENCHMARKS

HEADERS = [
    "Program",
    "Instr",
    "Micro-Ops",
    "Loads",
    "Stores",
    "US Stores",
    "TS Stores",
    "IPC",
]


def collect(runner: MatrixRunner, seeds=(1,)) -> list[list]:
    """Build Table 2 rows from the run matrix."""
    rows = []
    for name, cls in BENCHMARKS.items():
        base = runner.cells(name, "base", seeds)[0]
        micro_ops = base["committed"]
        stores = base["stores"] + base["stcx"]
        rows.append(
            [
                name,
                int(micro_ops * cls.cracking_ratio),
                micro_ops,
                base["loads"] + base["larx"],
                stores,
                base["us_stores"],
                base["ts_stores"],
                round(base["ipc"], 3),
            ]
        )
    return rows


def run(scale: float = 1.0, seeds=(1,), results_dir="results", verbose=True,
        workers: int | None = None) -> str:
    """Run the experiment and return the rendered table.

    ``workers`` > 1 runs the unstored baseline cells in a process pool.
    """
    runner = MatrixRunner(scale=scale, results_dir=results_dir, verbose=verbose,
                          workers=workers)
    runner.run_matrix(None, ("base",), seeds)
    rows = collect(runner, seeds)
    return render_table(
        HEADERS, rows,
        title="Table 2: Basic Application Benchmark Characteristics "
              f"(synthetic models, scale={scale})",
    )


if __name__ == "__main__":
    print(run())
