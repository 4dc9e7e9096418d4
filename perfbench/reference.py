"""Regenerate ``reference.json``: digests at the default and held-out seeds.

Simulates every cell the workloads check against a reference — both
``cells-*`` matrices and the service's stored cells — serially through
``MatrixRunner.run_matrix`` and records each ``summarize()`` digest.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from . import cells, common, service


def regenerate(path: Path) -> None:
    """Rewrite the reference file at ``path``, each workload's cells at
    that workload's own scale."""
    from repro.experiments.runner import MatrixRunner

    reference = common.Reference(path, cells={})
    plan = [
        (cells.SCALE, benchmarks, techniques)
        for benchmarks, techniques in cells.MATRICES.values()
    ]
    plan.append((service.SCALE, (service.BENCHMARK,), service.STORED_TECHNIQUES))
    workdir = common.ROOT / ".perfbench-work" / "reference"
    try:
        for cell_scale, benchmarks, techniques in plan:
            for seed in common.REFERENCE_SEEDS:
                runner = MatrixRunner(
                    scale=cell_scale, results_dir=workdir, verbose=False,
                )
                out = runner.run_matrix(
                    benchmarks=benchmarks, techniques=techniques, seeds=[seed],
                )
                for benchmark in benchmarks:
                    for technique in techniques:
                        reference.put(
                            cell_scale, benchmark, technique, seed,
                            out[runner.key(benchmark, technique, seed)],
                        )
                print(f"reference: scale {cell_scale} seed {seed} "
                      f"{len(out)} cells")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference.save()
