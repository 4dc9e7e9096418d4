"""The benchmark's own tests: attribution check, host-speed correction
and smoke test.

    python3 -m pytest perfbench/test_perfbench.py

The attribution check traces one ``cells-comm`` cell and holds the
layer clock to two things: its layer self times plus the unattributed
time add up to the traced wall, and each ``repro.<package>``'s share of
self time is within :data:`SHARE_POINTS` points of what cProfile says.
The smoke test runs every workload for a moment through ``run.py``,
the way a benchmark driver does, and checks what it prints.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import cells, common  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.layers import LayerClock  # noqa: E402

common.import_repro()

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: A communication-bound cell, where every layer does some work.
ATTRIBUTION_CELL = ("tpc-b", "emesti+lvp")
#: How far (percentage points) a layer's share may sit from cProfile's.
#: cProfile's own per-call cost is removed only approximately, so it
#: still inflates the call-heavy ``cpu`` package: over five runs its
#: ``cpu`` share read 4-9 points above the layer clock's 44-48%, while a
#: signal-driven sampler, which adds no per-call cost, read 45.6%.
SHARE_POINTS = 12.0
#: Tries of each kind of run; the fastest counts.  At five, steal from
#: the host moved the ``cpu`` share by up to 14 points; at nine, by 4-9.
REPEATS = 9


def _package(filename: str) -> str | None:
    """``repro.<package>`` of a source file, or None outside one."""
    parts = Path(filename).parts
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    return rest[0] if len(rest) > 1 else None


def cprofile_costs(n: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds cProfile adds to a callee's and to its caller's self time
    per call, measured the way :meth:`LayerClock.calibrate` measures
    the wrappers."""

    def noop():
        return None

    def caller():
        for _ in range(n):
            noop()

    def empty():
        for _ in range(n):
            pass

    bare = loop = callee_cost = caller_cost = float("inf")
    for _ in range(repeats):
        bare = min(bare, _seconds(caller) / n)
        loop = min(loop, _seconds(empty) / n)
        profile = cProfile.Profile()
        profile.enable()
        caller()
        profile.disable()
        stats = pstats.Stats(profile).stats
        tottime = {func[2]: row[2] for func, row in stats.items()}
        callee_cost = min(callee_cost, tottime["noop"] / n - (bare - loop))
        caller_cost = min(caller_cost, tottime["caller"] / n - loop)
    return max(callee_cost, 0.0), max(caller_cost, 0.0)


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def cprofile_shares(stats: dict, overhead_s: float) -> dict[str, float]:
    """cProfile self time per ``repro.<package>``, its own cost removed.

    cProfile prices every call, so raw it bills packages by how many
    calls they make.  Each function's calls in and out are priced as
    :func:`cprofile_costs` measures, scaled so that together they come
    to ``overhead_s`` (profiled minus untraced wall), and taken off its
    self time, as the layer clock does for its wrappers.  A function
    outside ``repro`` (the standard library, a builtin) then counts for
    the packages of its callers, in proportion to the time each caller
    spent in it: that is how the wrappers bill it.
    """
    callee_cost, caller_cost = cprofile_costs()
    made: dict = {}
    for row in stats.values():
        for caller, edge in row[4].items():
            made[caller] = made.get(caller, 0) + edge[1]
    priced = {
        func: row[1] * callee_cost + made.get(func, 0) * caller_cost
        for func, row in stats.items()
    }
    scale = overhead_s / sum(priced.values())
    owners: dict = {}

    def owner(func, active=frozenset()) -> dict[str | None, float]:
        package = _package(func[0])
        if package is not None:
            return {package: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if total <= 0 or func in active:
            return {None: 1.0}
        split: dict[str | None, float] = {}
        for caller, edge in callers.items():
            for package, frac in owner(caller, active | {func}).items():
                split[package] = split.get(package, 0.0) + frac * edge[2] / total
        owners[func] = split
        return split

    spent: dict[str | None, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        own = max(tottime - priced[func] * scale, 0.0)
        for package, frac in owner(func).items():
            spent[package] = spent.get(package, 0.0) + own * frac
    spent.pop(None, None)
    return spent


def _shares(spent: dict[str, float]) -> dict[str, float]:
    total = sum(spent.values())
    return {package: 100 * s / total for package, s in spent.items()}


@pytest.fixture(scope="module")
def attribution(tmp_path_factory):
    """One cell run untraced, traced and under cProfile."""
    workdir = tmp_path_factory.mktemp("attribution")
    loop = cells.CellLoop("cells-comm", workdir)
    loop.cells = [ATTRIBUTION_CELL]

    def one_pass():
        loop.one_pass(common.DEFAULT_SEED, None, hits=0)

    # Host noise only ever adds time, so each kind of run keeps its
    # fastest of REPEATS tries.  The cyclic collector is held off, or a
    # collection would land in whichever layer happened to be running.
    one_pass()  # warm: imports, first-call caches
    gc.collect()
    gc.disable()
    try:
        return _attribution_runs(loop, one_pass)
    finally:
        gc.enable()


def _attribution_runs(loop, one_pass) -> dict:
    untraced = min(_seconds(one_pass) for _ in range(REPEATS))
    clock = LayerClock()
    clock.calibrate()
    snapshot, counts = min(
        (cells.traced_pass(loop, common.DEFAULT_SEED, clock, untraced)
         for _ in range(REPEATS)),
        key=lambda traced: traced[0]["wall_s"],
    )
    profiled = []
    for _ in range(REPEATS):
        profile = cProfile.Profile()
        profile.enable()
        wall = _seconds(one_pass)
        profile.disable()
        profiled.append((wall, pstats.Stats(profile).stats))
    wall, stats = min(profiled, key=lambda run: run[0])
    assert loop.outcome.failed == 0, loop.outcome.problems
    return {"snapshot": snapshot, "counts": counts,
            "cprofile": cprofile_shares(stats, wall - untraced)}


def test_layer_self_times_add_up_to_traced_wall(attribution):
    snapshot = attribution["snapshot"]
    metrics = cells.layer_metrics(snapshot, attribution["counts"])
    reported = sum(
        value for name, value in metrics.items()
        if name.endswith("_s")
    )
    assert reported == pytest.approx(snapshot["wall_s"], rel=1e-9)
    assert sum(snapshot["self_s"].values()) == pytest.approx(snapshot["wall_s"], rel=1e-9)


def test_layer_shares_match_cprofile(attribution):
    mine: dict[str, float] = {}
    for layer, spent in attribution["snapshot"]["self_s"].items():
        if layer is not None:
            package = layer.split(".")[0]
            mine[package] = mine.get(package, 0.0) + spent
    ours, theirs = _shares(mine), _shares(attribution["cprofile"])
    table = {p: (round(ours.get(p, 0.0), 1), round(theirs.get(p, 0.0), 1))
             for p in sorted(set(ours) | set(theirs))}
    far = {p: v for p, v in table.items() if abs(v[0] - v[1]) > SHARE_POINTS}
    assert not far, f"layer shares (ours, cProfile) %: {table}"


def test_host_speed_divides_by_the_mean_of_the_bracketing_readings():
    readings = iter([2.0, 4.0, 1.0])
    speed = HostSpeed(lambda: next(readings))
    assert speed.correct(3.0, 6.0) == [1.0, 2.0]
    assert speed.correct(5.0) == [2.0]
    assert speed.slowdowns == [2.0, 4.0, 1.0]


# -- smoke test ---------------------------------------------------------


def _run(workload: str, trace: int, reference: Path | None,
         seconds: float) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(common.DEFAULT_SEED), "--seconds", str(seconds),
               "--trace", str(trace)]
    if reference is not None:
        command += ["--reference", str(reference)]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)


def run_bench(workload: str, trace: int = 0, reference: Path | None = None,
              seconds: float = 0.5) -> tuple[dict, str]:
    """Run ``run.py`` as a driver would; returns (result, stdout).

    An untraced run goes on past ``seconds`` until every percentile has
    enough samples, so it takes about as long as a full one.
    """
    done = _run(workload, trace, reference, seconds)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def _printed_error_rate(stdout: str) -> float:
    line = next(line for line in stdout.splitlines() if line.startswith("error_rate "))
    return float(line.split()[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result, stdout = run_bench(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stdout
    assert result["attempted"] >= 1
    assert _printed_error_rate(stdout) == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in stdout.splitlines()
        ), f"{metric['name']} not printed with {metric['unit']}"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("change", ["corrupted", "missing"])
def test_bad_reference_digest_fails(workload, change, tmp_path):
    # The traced run checks every answer too, and is the quick one.
    doc = json.loads(common.REFERENCE.read_text())
    for digests in doc["cells"].values():
        for key in [k for k in digests if k.endswith(f"|{common.DEFAULT_SEED}")]:
            if change == "missing":
                del digests[key]
            else:
                digests[key]["cycles"] += 1
    changed = tmp_path / "reference.json"
    changed.write_text(json.dumps(doc))
    result, stdout = run_bench(workload, trace=1, reference=changed)
    assert not result["correct"] and result["failed"] > 0
    assert _printed_error_rate(stdout) > 0
    assert result["metrics"]["error_rate"]["value"] > 0


def test_missing_reference_is_an_error(tmp_path):
    done = _run(WORKLOADS[0], 0, tmp_path / "absent.json", 0.5)
    assert done.returncode != 0
    assert "no reference digests" in done.stderr
