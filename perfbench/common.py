"""Shared pieces: checkout paths, percentiles, correctness reference."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from .hostspeed import HostSpeed

#: Root of the checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: The workload seed a bare invocation uses, and the held-out seed:
#: reference digests exist for both; tune on the first, re-check
#: claims on the second.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4099
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Samples every reported percentile must have above it.  An untraced
#: run is sized to collect them; one still short (because requests
#: failed) counts the shortfall as a failure.
MIN_BEYOND = 10


def import_repro() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no simulator sources at {SRC} "
            "(run from a full checkout)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def subprocess_env(*extra_paths: Path) -> dict[str, str]:
    """Environment for a child Python that imports the checkout."""
    env = dict(os.environ)
    paths = [str(SRC), *map(str, extra_paths)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: ``n - ceil(p n)`` samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th."""
    return n - max(1, math.ceil(p / 100 * n))


def min_samples(p: float) -> int:
    """The fewest samples that leave :data:`MIN_BEYOND` above the
    nearest-rank ``p``-th percentile."""
    n = MIN_BEYOND
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def shortfalls(counts: dict[str, tuple[int, float]]) -> list[str]:
    """Which ``name: (samples, percentile)`` lack :data:`MIN_BEYOND`
    samples above the percentile; empty when every one has them."""
    return [
        f"{name}: {n} samples leave {samples_beyond(n, p)} above p{p:g}, "
        f"fewer than {MIN_BEYOND}"
        for name, (n, p) in counts.items()
        if samples_beyond(n, p) < MIN_BEYOND
    ]


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return statistics.median(values)


def digest(summary: dict) -> dict:
    """A summary minus the host-dependent fields (the compared part)."""
    from repro.experiments.runner import NONDETERMINISTIC_FIELDS

    return {
        k: v for k, v in summary.items()
        if k not in NONDETERMINISTIC_FIELDS and k not in ("trace", "provenance")
    }


def summary_invariants(summary: dict) -> list[str]:
    """Identities every summary satisfies, whatever the seed."""
    problems = []
    if not summary.get("committed", 0) > 0:
        problems.append("committed <= 0")
    if not summary.get("cycles", 0) > 0:
        problems.append("cycles <= 0")
    # A communication miss is counted when it is requested and given its
    # cause when its fill arrives, so one still in flight at the end of
    # the cell has no cause (specweb, emesti+lvp, seed 17: 255 vs 254).
    if summary.get("miss_comm", 0) < (
        summary.get("miss_comm_tss", 0) + summary.get("miss_comm_false", 0)
        + summary.get("miss_comm_true", 0)
    ):
        problems.append("miss_comm < tss + false + true")
    if summary.get("miss_total") != (
        summary.get("miss_cold", 0) + summary.get("miss_capacity", 0)
        + summary.get("miss_comm", 0)
    ):
        problems.append("miss_total != cold + capacity + comm")
    return problems


class Reference:
    """Committed ``summarize()`` digests, keyed by scale and cell.

    ``cells`` starts a new, empty reference (regeneration); without it
    the file at ``path`` must exist.
    """

    def __init__(self, path: Path = REFERENCE,
                 cells: dict[str, dict[str, dict]] | None = None):
        self.path = Path(path)
        if cells is None:
            if not self.path.is_file():
                raise SystemExit(
                    f"perfbench: no reference digests at {self.path} "
                    "(regenerate with --write-reference)"
                )
            cells = json.loads(self.path.read_text())["cells"]
        self.cells = cells

    @staticmethod
    def key(benchmark: str, technique: str, seed: int) -> str:
        """Same key as ``MatrixRunner.key``."""
        return f"{benchmark}|{technique}|{seed}"

    def get(self, scale: float, benchmark: str, technique: str, seed: int):
        """The stored digest, or None when this cell has no reference."""
        return self.cells.get(str(scale), {}).get(
            self.key(benchmark, technique, seed)
        )

    def check(self, scale: float, benchmark: str, technique: str, seed: int,
              summary: dict) -> list[str]:
        """Problems with ``summary``: invariants, then the reference.

        A cell at a :data:`REFERENCE_SEEDS` seed must have a digest.
        """
        problems = summary_invariants(summary)
        expected = self.get(scale, benchmark, technique, seed)
        if expected is None:
            if seed in REFERENCE_SEEDS:
                problems.append("no reference digest for this cell")
        else:
            got = digest(summary)
            diff = sorted(
                k for k in set(expected) | set(got)
                if expected.get(k) != got.get(k)
            )
            if diff:
                problems.append(
                    f"digest differs from reference in {', '.join(diff[:6])}"
                )
        return problems

    def put(self, scale: float, benchmark: str, technique: str, seed: int,
            summary: dict) -> None:
        """Record a digest (reference regeneration)."""
        self.cells.setdefault(str(scale), {})[
            self.key(benchmark, technique, seed)
        ] = digest(summary)

    def save(self) -> None:
        """Write the reference file (sorted, one cell per block)."""
        doc = {
            "about": (
                "summarize() digests (every field except "
                "NONDETERMINISTIC_FIELDS) per scale and "
                "benchmark|technique|seed; regenerate with "
                "`python3 perfbench/run.py --write-reference`"
            ),
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "cells": self.cells,
        }
        self.path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def time_setup(code: str, env: dict[str, str], repeats: int,
               speed: HostSpeed) -> list[float]:
    """CPU seconds fresh interpreters take to run ``code``, corrected
    for the host's speed by ``speed``'s probe.

    Each child reports its own CPU time once ``code`` has run, so
    interpreter teardown is not counted, and neither is time the host
    took the CPU away.  A child runs on this process's CPUs, and the
    correcting probe runs once it has exited.
    """
    times = []
    report = "\nimport time\nprint('ready', time.process_time(), flush=True)"
    for _ in range(repeats):
        child = subprocess.Popen(
            [sys.executable, "-c", code + report],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            cwd=ROOT,
        )
        try:
            line = child.stdout.readline().split()
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line[:1] != [b"ready"] or child.returncode != 0:
            raise RuntimeError(f"setup child failed (exit {child.returncode})")
        times.extend(speed.correct(float(line[1])))
    return times
