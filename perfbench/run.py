"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cells-comm [--seed N]
        [--seconds S] [--trace 0|1]

Workloads, metric names and units, and the default ``--seconds`` come
from ``BENCHMARK.json`` at the root of the checkout.

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the traced variant and prints the per-layer metrics.  Every
answer is checked (see README.md); the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--write-reference`` re-simulates every reference cell at the default
and held-out seeds and rewrites ``perfbench/reference.json`` — what a
model-fix change does, in plain sight.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

def parse_args(benchmark: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in benchmark["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", type=Path, default=common.REFERENCE,
        help="reference digests to check against",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="regenerate the reference digests and exit",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def run_workload(args: argparse.Namespace, workdir: Path) -> dict:
    """Dispatch to the workload module; returns its report dict."""
    reference = common.Reference(args.reference)
    if args.workload == "service-mix":
        from perfbench import service

        measure = service.measure_traced if args.trace else service.measure
        return measure(args.seed, args.seconds, workdir, reference)
    from perfbench import cells

    measure = cells.measure_traced if args.trace else cells.measure
    return measure(args.workload, args.seed, args.seconds, workdir, reference)


def render(report: dict, declared: list[dict]) -> dict:
    """Print the human-readable lines and build the result object with
    every ``declared`` metric."""
    outcome = report["outcome"]
    values = dict(report["metrics"])
    values["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name, 0.0)
        if isinstance(value, float) and not math.isfinite(value):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:36s} {value:>14.6g} {unit}")
    for note in report.get("notes", ()):
        print(note)
    print(
        f"error_rate {values['error_rate']:.4g} "
        f"({outcome.failed} failed / {outcome.attempted} attempted)"
    )
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    benchmark = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    args = parse_args(benchmark, argv)
    common.import_repro()
    if args.write_reference:
        from perfbench import reference

        reference.regenerate(args.reference)
        return 0
    workdir = common.ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = render(report, benchmark["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
