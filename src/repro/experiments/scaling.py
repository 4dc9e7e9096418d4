"""Processor-count scaling (§5.2's abbreviated 8/16-processor studies).

Runs selected benchmarks on 4-, 8-, and 16-processor systems under the
baseline and E-MESTI.  Communication misses grow with sharer count, so
validate leverage typically grows with the machine — while the address
network's fixed occupancy makes useless traffic costlier, which is why
the paper positions E-MESTI for "coherence bandwidth-limited
environments".

The (benchmark × cpu-count × technique) cells are independent
simulations, so with ``workers`` > 1 they fan out over a process pool
via :func:`~repro.experiments.runner.map_cells` — the 16-processor
cells dominate the sweep, and they parallelize perfectly.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.common.config import scaled_config
from repro.experiments.runner import cell_config, map_cells

HEADERS = [
    "Benchmark",
    "CPUs",
    "Base cycles",
    "Comm misses",
    "E-MESTI speedup",
    "Validates",
]


def collect(scale=0.4, seed=1, benchmarks=("tpc-b", "radiosity"),
            cpu_counts=(4, 8, 16), verbose=True, workers=None):
    """Run the experiment and return its result rows."""
    points = [(b, n) for b in benchmarks for n in cpu_counts]
    jobs = [
        (cell_config(scaled_config(n_procs=n), technique), benchmark, scale, seed)
        for benchmark, n in points
        for technique in ("base", "emesti")
    ]
    summaries = list(map_cells(jobs, workers))
    rows = []
    for i, (benchmark, n) in enumerate(points):
        base, emesti = summaries[2 * i], summaries[2 * i + 1]
        rows.append([
            benchmark, n, base["cycles"], base["miss_comm"],
            round(base["cycles"] / emesti["cycles"], 3),
            emesti["txn_validate"],
        ])
        if verbose:
            print(f"  scaling {benchmark} n={n} done", flush=True)
    return rows


def run(scale=0.4, seed=1, benchmarks=("tpc-b", "radiosity"),
        cpu_counts=(4, 8, 16), verbose=True, workers: int | None = None) -> str:
    """Run the experiment and return the rendered text."""
    rows = collect(scale, seed, benchmarks, cpu_counts, verbose, workers)
    return render_table(HEADERS, rows, title="Processor-count scaling (§5.2)")


if __name__ == "__main__":
    print(run())
