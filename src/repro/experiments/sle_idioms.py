"""§5.3.1 — SLE elision-idiom statistics.

The paper reports that, for commercial workloads, only ~25% of
larx/stcx acquire idioms attempt elision (the confidence predictor
filters the rest), and ~70% of attempts never encounter a release —
netting ~8% successfully elided idioms.  This harness reproduces that
breakdown per benchmark from the ``sle`` column of the run matrix.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.experiments.runner import MatrixRunner
from repro.workloads.registry import BENCHMARKS

HEADERS = [
    "Benchmark",
    "Candidates",
    "Attempts",
    "Attempt%",
    "Successes",
    "Success/Attempt%",
    "NoRelease*",  # incl. nested-control aborts: no release was found
    "Conflict",
    "Serialize",
    "Fallbacks",
]


def collect(runner: MatrixRunner, benchmarks=None, seeds=(1,)) -> list[list]:
    """Run the experiment and return its result rows."""
    rows = []
    for benchmark in benchmarks or BENCHMARKS:
        cells = runner.cells(benchmark, "sle", seeds)
        total = lambda key: sum(c[key] for c in cells)
        candidates = total("sle_candidates")
        attempts = total("sle_attempts")
        successes = total("sle_successes")
        rows.append([
            benchmark,
            candidates,
            attempts,
            round(100 * attempts / candidates, 1) if candidates else 0,
            successes,
            round(100 * successes / attempts, 1) if attempts else 0,
            # Regions aborted without ever seeing a release — whether
            # they overflowed the window or hit a control barrier
            # first, the idiom was imprecise (the paper's "never
            # encounter a release" bucket).
            total("sle_fail_no_release") + total("sle_fail_nested"),
            total("sle_fail_conflict"),
            total("sle_fail_serialize"),
            total("sle_fallback_acquisitions"),
        ])
    return rows


def run(scale: float = 1.0, seeds=(1,), results_dir="results", verbose=True,
        workers: int | None = None) -> str:
    """Run the experiment and return the rendered text.

    ``workers`` > 1 runs the unstored ``sle`` cells in a process pool.
    """
    runner = MatrixRunner(scale=scale, results_dir=results_dir, verbose=verbose,
                          workers=workers)
    runner.run_matrix(None, ("sle",), seeds)
    rows = collect(runner, seeds=seeds)
    return render_table(HEADERS, rows, title="SLE elision idiom statistics (§5.3.1)")


if __name__ == "__main__":
    print(run())
