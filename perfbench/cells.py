"""The ``cells-*`` workloads: simulator cells through ``MatrixRunner``.

One in-process client issues requests to ``MatrixRunner.run_matrix``
in a closed loop.  A pass runs every cell of the workload's matrix at
one seed into a fresh results directory; each such *new* request
simulates.  After each new request come :data:`HITS_PER_NEW` *hit*
requests: a fresh ``MatrixRunner`` on the same directory asks for a
cell already stored, which is served from the cache file without
simulating.  A run is a fixed number of whole passes (see
:func:`run_passes`, and :func:`pass_seed` for their seeds).
"""

from __future__ import annotations

import itertools
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import common
from .hostspeed import CLOCK, FileProbe, HostSpeed, pin_to_one_cpu, probe
from .layers import LayerClock, Wrapping, wrap_simulator

#: The matrices.  ``cells-comm`` is communication-bound commercial
#: code; ``cells-compute`` is ALU- or capacity-bound code with almost
#: no communication misses (see README.md for the measurements).
MATRICES = {
    "cells-comm": (
        ("tpc-b", "specweb"),
        ("base", "mesti", "emesti", "emesti+lvp"),
    ),
    "cells-compute": (
        ("raytrace", "ocean", "specjbb"),
        ("base", "sle", "emesti+lvp+sle"),
    ),
}

SCALE = 0.03

#: Cache-served requests per simulated one.  Re-running the paper's
#: matrix (7 workloads x 9 techniques) after a change to one technique
#: simulates its 7 cells again and serves the other 56 from the cache:
#: 8 hits per new cell.
HITS_PER_NEW = 8

#: Seconds a pass (cells, hits, probes and checks) takes on the
#: reference host; with ``--seconds`` it sizes a run.
PASS_S = {"cells-comm": 1.2, "cells-compute": 1.5}

#: Fresh interpreters timed for ``setup_s``.
SETUP_REPEATS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src')\n"
    "import repro.experiments.runner"
)


def run_passes(workload: str, seconds: float) -> int:
    """Passes in an untraced run: about ``seconds`` on the reference
    host, and never fewer than leave :data:`common.MIN_BEYOND` samples
    above ``new_job_ms_p90`` and ``hit_job_ms_p95``.

    A run is a fixed amount of work, not a fixed time, so a given
    ``--seed`` always runs the same cells however fast the host is.
    """
    cells = len(MATRICES[workload][0]) * len(MATRICES[workload][1])
    return max(
        math.ceil(seconds / PASS_S[workload]),
        math.ceil(common.min_samples(90) / cells),
        math.ceil(common.min_samples(95) / (cells * HITS_PER_NEW)),
    )


def pass_seed(seed: int, k: int) -> int:
    """The seed of an untraced run's ``k``-th pass.

    Pass 0 runs the default seed, so every run checks the committed
    reference; pass ``k >= 1`` runs ``seed + k - 1``.  A cell's cost
    follows its inputs (ocean's cells ranged from 0.23 to 0.39 s over
    six seeds at scale 0.05), so a run that timed one seed only would
    report that seed's cell sizes; over a dozen seeds the percentiles
    describe the workload.
    """
    return common.DEFAULT_SEED if k == 0 else seed + k - 1


@dataclass
class Outcome:
    """What a run attempted, what failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{what}: {why}")


@dataclass
class Samples:
    """Per-request timings of one run, corrected for the host's speed.

    Requests run in this thread, so each is timed in CPU time
    (:data:`~perfbench.hostspeed.CLOCK`), which leaves out the time the
    host takes the CPU away.  Two probes close each new request and the
    hit requests after it, so each new request is corrected by the
    interpreter probes on either side of it and its hits by the file
    probes (see :mod:`perfbench.hostspeed`).  ``probe_dir`` holds the
    file probe's files.
    """

    probe_dir: Path
    new_s: list[float] = field(default_factory=list)
    hit_s: list[float] = field(default_factory=list)
    committed: int = 0
    #: Uncorrected seconds of the new requests, for the notes.
    raw_new_s: float = 0.0

    def __post_init__(self) -> None:
        self.cpu = HostSpeed(probe)
        self.files = HostSpeed(FileProbe(self.probe_dir))

    def add(self, new_s: float, hit_s: list[float], committed: int) -> None:
        """Record one new request and the hits that followed it."""
        self.new_s.extend(self.cpu.correct(new_s))
        self.hit_s.extend(self.files.correct(*hit_s))
        self.committed += committed
        self.raw_new_s += new_s


class CellLoop:
    """Runs passes of one matrix and checks every answer."""

    def __init__(self, workload: str, workdir: Path,
                 reference: common.Reference | None = None):
        from repro.experiments.runner import MatrixRunner

        self.MatrixRunner = MatrixRunner
        benchmarks, techniques = MATRICES[workload]
        self.cells = [(b, t) for b in benchmarks for t in techniques]
        self.workdir = workdir
        self.reference = reference or common.Reference()
        self.outcome = Outcome()
        self.first: dict[tuple, dict] = {}
        self._passes = itertools.count()

    def _check(self, cell: tuple, summary: dict) -> None:
        problems = self.reference.check(SCALE, *cell, summary)
        first = self.first.setdefault(cell, common.digest(summary))
        if common.digest(summary) != first:
            problems.append("differs from this run's first simulation")
        if problems:
            self.outcome.fail("|".join(map(str, cell)), "; ".join(problems))

    def one_pass(self, seed: int, samples: Samples | None,
                 hits: int = HITS_PER_NEW) -> None:
        """Every cell once at ``seed`` as a new request, each followed
        by ``hits`` requests for cells this pass stored."""
        results = self.workdir / f"pass{next(self._passes)}"
        runner = self.MatrixRunner(
            scale=SCALE, results_dir=results, verbose=False,
        )
        stored: list[tuple[tuple, dict]] = []
        hit_order = itertools.count()
        try:
            for benchmark, technique in self.cells:
                cell = (benchmark, technique, seed)
                self.outcome.attempted += 1
                start = CLOCK()
                try:
                    out = runner.run_matrix(
                        benchmarks=[benchmark], techniques=[technique],
                        seeds=[seed],
                    )
                except Exception as exc:  # noqa: BLE001 - a failed cell is a result
                    self.outcome.fail("|".join(map(str, cell)), repr(exc))
                    continue
                elapsed = CLOCK() - start
                summary = out[runner.key(*cell)]
                self._check(cell, summary)
                stored.append((cell, summary))
                hit_s = [
                    self._hit(results, *stored[next(hit_order) % len(stored)])
                    for _ in range(hits)
                ]
                if samples is not None:
                    samples.add(elapsed, [s for s in hit_s if s is not None],
                                summary["committed"])
        finally:
            shutil.rmtree(results, ignore_errors=True)

    def _hit(self, results: Path, cell: tuple, expected: dict) -> float | None:
        """One cache-served request; its seconds, or None if it raised."""
        self.outcome.attempted += 1
        benchmark, technique, seed = cell
        start = CLOCK()
        try:
            runner = self.MatrixRunner(
                scale=SCALE, results_dir=results, verbose=False,
            )
            out = runner.run_matrix(
                benchmarks=[benchmark], techniques=[technique], seeds=[seed],
            )
        except Exception as exc:  # noqa: BLE001 - a failed request is a result
            self.outcome.fail("hit " + "|".join(map(str, cell)), repr(exc))
            return None
        elapsed = CLOCK() - start
        if runner.manifest is None or runner.manifest.cells[
            runner.key(*cell)
        ]["status"] != "cached":
            self.outcome.fail("hit " + "|".join(map(str, cell)), "was not cache-served")
        elif common.digest(out[runner.key(*cell)]) != common.digest(expected):
            self.outcome.fail("hit " + "|".join(map(str, cell)), "cached summary differs")
        return elapsed


def _percentile_counts(samples: Samples) -> dict[str, tuple[int, float]]:
    return {"new": (len(samples.new_s), 90), "hit": (len(samples.hit_s), 95)}


def measure(workload: str, seed: int, seconds: float, workdir: Path,
            reference: common.Reference) -> dict:
    """The untraced run: end-to-end metrics.

    Runs :func:`run_passes` passes; a run short of the percentile
    sample floor (requests that failed) counts the shortfall as a
    failure.  Every timing is corrected for the host's speed (see
    :mod:`perfbench.hostspeed`); ``jobs_per_s`` is the one client's
    request rate over its corrected request time.
    """
    pin_to_one_cpu()
    probe_dir = workdir / "probe"
    setup = common.time_setup(
        SETUP_CODE, common.subprocess_env(), SETUP_REPEATS,
        HostSpeed(FileProbe(probe_dir)),
    )
    loop = CellLoop(workload, workdir, reference)
    samples = Samples(probe_dir)
    passes = run_passes(workload, seconds)
    start = time.perf_counter()
    for k in range(passes):
        loop.one_pass(pass_seed(seed, k), samples)
    elapsed = time.perf_counter() - start
    for problem in common.shortfalls(_percentile_counts(samples)):
        loop.outcome.fail("percentile", problem)
    new_ms = [s * 1e3 for s in samples.new_s] or [float("nan")]
    hit_ms = [s * 1e3 for s in samples.hit_s] or [float("nan")]
    done = len(samples.new_s) + len(samples.hit_s)
    busy_s = sum(samples.new_s) + sum(samples.hit_s)
    metrics = {
        "sim_kips": samples.committed / sum(samples.new_s) / 1e3
        if samples.new_s else 0.0,
        "hit_job_ms_p50": common.median(hit_ms),
        "hit_job_ms_p95": common.percentile(hit_ms, 95),
        "new_job_ms_p50": common.median(new_ms),
        "new_job_ms_p90": common.percentile(new_ms, 90),
        "jobs_per_s": done / busy_s if busy_s else 0.0,
        "setup_s": common.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"samples: new={len(samples.new_s)} hit={len(samples.hit_s)} "
        f"setup={len(setup)} ({passes} passes at seeds {common.DEFAULT_SEED}"
        + (f" and {seed}..{pass_seed(seed, passes - 1)}" if passes > 1 else "")
        + f", {elapsed:.1f}s)",
        samples.cpu.note("interpreter") + "; uncorrected sim_kips "
        + f"{samples.committed / samples.raw_new_s / 1e3 if samples.raw_new_s else 0.0:.4g}",
        samples.files.note("file"),
    ]
    return {"outcome": loop.outcome, "metrics": metrics, "notes": notes}


def sim_counts(systems: list) -> dict[str, float]:
    """Work counts read from the simulator's own statistics."""
    counts: dict[str, float] = {
        "events": 0, "committed": 0, "squashed": 0, "l2_load_misses": 0,
        "bus_txns": 0, "comm_misses": 0, "validates": 0,
        "validates_useful": 0, "validates_judged": 0,
        "lvp_predictions": 0, "lvp_correct": 0,
        "sle_attempts": 0, "sle_successes": 0,
    }
    for system in systems:
        stats = system.stats
        counts["events"] += system.scheduler.events_fired
        counts["committed"] += sum(core.committed for core in system.cores)
        counts["bus_txns"] += stats.get("bus.txn.total")
        counts["comm_misses"] += stats.get("misses.miss.comm")
        for i in range(len(system.cores)):
            counts["squashed"] += stats.get(f"core{i}.squash.ops")
            counts["l2_load_misses"] += stats.get(f"node{i}.l2.load_misses")
            counts["validates"] += stats.get(f"ctrl{i}.validates_broadcast")
            useful = (
                stats.get(f"ctrl{i}.predictor.useful_by_external_req")
                + stats.get(f"ctrl{i}.predictor.useful_by_snoop_response")
            )
            counts["validates_useful"] += useful
            counts["validates_judged"] += useful + stats.get(
                f"ctrl{i}.predictor.useless_by_snoop_response"
            )
            counts["lvp_predictions"] += stats.get(f"node{i}.lvp.predictions")
            counts["lvp_correct"] += stats.get(f"node{i}.lvp.correct")
            counts["sle_attempts"] += stats.get(f"sle{i}.attempts")
            counts["sle_successes"] += stats.get(f"sle{i}.successes")
    return counts


def layer_metrics(snapshot: dict, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from a :class:`LayerClock` snapshot + counts."""
    self_s = snapshot["self_s"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    committed = counts["committed"]
    return {
        "common.sched.self_s": self_s.get("common.sched", 0.0),
        "common.sched.events": counts["events"],
        "common.sched.events_per_kop": ratio(counts["events"], committed / 1e3),
        "common.stats.self_s": self_s.get("common.stats", 0.0),
        "common.stats.adds": snapshot["counts"].get("common.stats.adds", 0),
        "cpu.core.self_s": self_s.get("cpu.core", 0.0),
        "cpu.core.committed": committed,
        "cpu.core.squashed": counts["squashed"],
        "cpu.core.useful_ratio": ratio(committed, committed + counts["squashed"]),
        "cpu.program.self_s": self_s.get("cpu.program", 0.0),
        "memory.self_s": self_s.get("memory", 0.0),
        "memory.accesses": snapshot["counts"].get("memory.accesses", 0),
        "memory.l2_load_misses": counts["l2_load_misses"],
        "coherence.self_s": self_s.get("coherence", 0.0),
        "coherence.bus_txns": counts["bus_txns"],
        "coherence.comm_misses": counts["comm_misses"],
        "coherence.validates": counts["validates"],
        "coherence.validate_useful_ratio": ratio(
            counts["validates_useful"], counts["validates_judged"]
        ),
        "lvp.self_s": self_s.get("lvp", 0.0),
        "lvp.predictions": counts["lvp_predictions"],
        "lvp.accuracy": ratio(counts["lvp_correct"], counts["lvp_predictions"]),
        "sle.self_s": self_s.get("sle", 0.0),
        "sle.attempts": counts["sle_attempts"],
        "sle.success_ratio": ratio(counts["sle_successes"], counts["sle_attempts"]),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "workloads.build_s": self_s.get("workloads", 0.0),
        "system.build_s": self_s.get("system", 0.0),
        "experiments.summarize_s": self_s.get("experiments.summarize", 0.0),
        "experiments.flush_s": self_s.get("experiments.flush", 0.0),
        "trace.unattributed_s": self_s.get(None, 0.0),
    }


def traced_pass(loop: CellLoop, seed: int, clock: LayerClock,
                baseline_s: float | None = None) -> tuple[dict, dict]:
    """One pass at ``seed`` with the simulator wrapped: (snapshot, counts)."""
    wrapping = Wrapping(clock)
    systems: list = []
    wrap_simulator(wrapping, systems)
    try:
        clock.reset()
        loop.one_pass(seed, None, hits=0)
        snapshot = clock.snapshot(baseline_s)
    finally:
        wrapping.restore()
    return snapshot, sim_counts(systems)


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path,
                   reference: common.Reference) -> dict:
    """The traced run: untraced and traced passes, alternating.

    Every pass simulates each cell of the matrix once at ``seed``,
    without hit requests.  Pairs of passes repeat until ``seconds`` have gone by
    (one pair at least).  The simulator's counts must repeat exactly
    from one traced pass to the next; times are means per traced pass,
    and each traced pass takes the untraced pass before it as the
    baseline that prices the wrappers' cost (see
    :meth:`LayerClock.snapshot`).
    """
    loop = CellLoop(workload, workdir, reference)
    clock = LayerClock()
    clock.calibrate()
    untraced, walls = [], []
    self_s: dict[str | None, float] = {}
    counts = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        loop.one_pass(seed, None, hits=0)
        untraced.append(time.perf_counter() - begin)
        snapshot, pass_counts = traced_pass(loop, seed, clock, untraced[-1])
        walls.append(snapshot["wall_s"])
        for layer, spent in snapshot["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + spent
        if counts is None:
            counts, first = pass_counts, snapshot
        elif pass_counts != counts:
            loop.outcome.fail("traced pass", "simulation counts differ between passes")
    passes = len(walls)
    mean = {
        "self_s": {layer: spent / passes for layer, spent in self_s.items()},
        "calls": first["calls"], "counts": first["counts"],
        "wall_s": sum(walls) / passes,
    }
    metrics = layer_metrics(mean, counts)
    metrics["trace.overhead"] = common.median(walls) / common.median(untraced)
    notes = [
        f"samples: {passes} traced and {len(untraced)} untraced passes",
        "self-time share of traced wall: " + ", ".join(
            f"{layer or 'unattributed'} {spent / mean['wall_s']:.1%}"
            for layer, spent in sorted(mean["self_s"].items(), key=lambda kv: -kv[1])
        ),
    ]
    return {"outcome": loop.outcome, "metrics": metrics, "notes": notes}
