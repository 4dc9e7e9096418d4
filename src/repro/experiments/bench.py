"""The ``repro-sim bench`` gate: exact cycles/committed and determinism.

:func:`run` simulates the fixed :data:`MINI_MATRIX` twice: once
serially through :class:`~repro.experiments.runner.MatrixRunner`, once
through the runner's warm process pool (:func:`pooled_pass`).  The
report holds each cell's ``cycles``/``committed``, the machine-config
fingerprint, the scale, and whether the two passes agree on every
summary field outside
:data:`~repro.experiments.runner.NONDETERMINISTIC_FIELDS`, with every
pooled cell run in another process.
:func:`compare` holds a report to a baseline (``BENCH_matrix.json`` at
the repo root) and names every difference; any one fails the gate.

Nothing here measures the host: the simulator's speed is perfbench's
job (``perfbench/README.md``).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.experiments.runner import (
    NONDETERMINISTIC_FIELDS,
    MatrixRunner,
    RunSummary,
    map_cells,
)

#: Report format version.  3: cells and the determinism check only.
SCHEMA = 3

#: The fixed mini-matrix: one scientific and one commercial workload,
#: baseline and the headline technique.
MINI_MATRIX = {
    "benchmarks": ("radiosity", "tpc-b"),
    "techniques": ("base", "emesti"),
    "seeds": (1,),
    "scale": 0.1,
}

#: The per-cell summary fields a report records and the gate compares.
EXACT_FIELDS = ("cycles", "committed")

#: Processes in the pooled pass, which exists to cross a process
#: boundary.
POOL_WIDTH = 2


def pooled_pass(
    runner: MatrixRunner, cells: list[tuple[str, str, int]]
) -> dict[str, RunSummary]:
    """Run ``(benchmark, technique, seed)`` cells of ``runner``'s matrix
    in a :data:`POOL_WIDTH`-process pool, keyed like
    ``runner.run_matrix``."""
    jobs = [
        (runner.cell_config(technique), benchmark, runner.scale, seed)
        for benchmark, technique, seed in cells
    ]
    summaries = map_cells(jobs, POOL_WIDTH)
    return {runner.key(*cell): summary for cell, summary in zip(cells, summaries)}


def run(output: str | Path = "BENCH_matrix.json",
        results_dir: str | Path | None = None) -> dict:
    """Run both passes of :data:`MINI_MATRIX` and write the report.

    The serial pass keeps its cells in ``results_dir`` (default: a
    temporary directory, removed before returning).  Returns the
    report; ``report["determinism"]["ok"]`` says whether the passes
    agree.  A pooled cell that ran in this process fails the check
    too, named ``<key>.worker``.
    """
    spec = MINI_MATRIX
    cells = [
        (benchmark, technique, seed)
        for benchmark in spec["benchmarks"]
        for technique in spec["techniques"]
        for seed in spec["seeds"]
    ]
    with tempfile.TemporaryDirectory() as scratch:
        runner = MatrixRunner(scale=spec["scale"],
                              results_dir=results_dir or scratch,
                              verbose=False)
        serial = runner.run_matrix(benchmarks=spec["benchmarks"],
                                   techniques=spec["techniques"],
                                   seeds=spec["seeds"])
        pooled = pooled_pass(runner, cells)
    mismatched = sorted(
        [f"{key}.{field}"
         for key, summary in serial.items()
         for field in summary.keys() | pooled[key].keys()
         if field not in NONDETERMINISTIC_FIELDS
         and summary.get(field) != pooled[key].get(field)]
        # A pooled cell that ran here (a cell that failed in the pool
        # reruns here) would be compared with the serial path itself.
        + [f"{key}.worker" for key, summary in pooled.items()
           if summary["worker"] == os.getpid()]
    )
    report = {
        "schema": SCHEMA,
        "fingerprint": runner.fingerprint,
        "scale": spec["scale"],
        "cells": [
            {"benchmark": benchmark, "technique": technique, "seed": seed,
             **{field: serial[runner.key(benchmark, technique, seed)][field]
                for field in EXACT_FIELDS}}
            for benchmark, technique, seed in cells
        ],
        "determinism": {"ok": not mismatched, "mismatched": mismatched},
    }
    Path(output).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def _cells(report: dict) -> dict[str, dict]:
    """A report's cells keyed ``benchmark|technique|seed``."""
    return {
        MatrixRunner.key(cell["benchmark"], cell["technique"], cell["seed"]): cell
        for cell in report.get("cells", ())
    }


def compare(report: dict, baseline: dict | None = None) -> list[str]:
    """Every way ``report`` fails the gate, one line each (empty: pass).

    A failed determinism check always fails.  Against a baseline, so
    does any difference in the schema, fingerprint or scale, a cell
    present in only one of the two, and any cell's ``cycles`` or
    ``committed``.  Nothing is skipped: a baseline the report cannot be
    held to fails rather than passing unchecked.
    """
    problems = []
    if not report["determinism"]["ok"]:
        problems.append(
            "determinism: the serial and pooled passes differ in "
            + ", ".join(report["determinism"]["mismatched"])
        )
    if baseline is None:
        return problems
    for field in ("schema", "fingerprint", "scale"):
        if baseline.get(field) != report.get(field):
            problems.append(
                f"{field}: baseline {baseline.get(field)!r}, "
                f"report {report.get(field)!r}"
            )
    base_cells, cells = _cells(baseline), _cells(report)
    for key in sorted(base_cells.keys() - cells.keys()):
        problems.append(f"cell {key}: in the baseline, missing from the report")
    for key in sorted(cells.keys() - base_cells.keys()):
        problems.append(f"cell {key}: in the report, missing from the baseline")
    for key in sorted(base_cells.keys() & cells.keys()):
        for field in EXACT_FIELDS:
            expected, got = base_cells[key].get(field), cells[key].get(field)
            if expected != got:
                problems.append(
                    f"cell {key} {field}: baseline {expected}, report {got}"
                )
    return problems


def render(report: dict) -> str:
    """One-screen human summary of a bench report."""
    lines = [
        f"cells      : {len(report['cells'])} at scale {report['scale']}, "
        f"fingerprint {report['fingerprint']}"
    ]
    for cell in report["cells"]:
        lines.append(
            f"  {cell['benchmark']:>10s}/{cell['technique']:<8s} "
            f"seed={cell['seed']} cycles={cell['cycles']} "
            f"committed={cell['committed']}"
        )
    det = report["determinism"]
    lines.append(
        "determinism: "
        + ("ok (serial == pooled)" if det["ok"]
           else f"MISMATCH in {', '.join(det['mismatched'])}")
    )
    return "\n".join(lines)
