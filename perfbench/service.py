"""The ``service-mix`` workload: jobs through ``repro-sim serve``.

A server with one pool worker starts on a fresh state root.  Its
warm-up job simulates the *stored* cells (the run's seed and the
default seed, whose reference every run so checks), so the pool is
warm and the result store holds something to serve.  Then a closed
loop of :data:`CLIENTS` clients drives it over HTTP for a fixed
number of jobs (see :func:`closed_loop`): each client
submits one job (``POST /jobs``), follows ``/jobs/{id}/events`` to
``job.completed``, and only then submits its next.  After every
:data:`HITS_PER_NEW` jobs that resubmit a stored cell, which the result
store serves without simulating, a client asks for a new tiny cell (a
fresh seed).  The two clients never ask for the same
stored cell, so no job is deduplicated into another's trace.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import common
from .cells import Outcome
from .hostspeed import (
    CLOCK,
    FileProbe,
    HostSpeed,
    pin_to_one_cpu,
    probe,
    steal_seconds,
    unpin,
)

HERE = Path(__file__).resolve().parent

SCALE = 0.02
BENCHMARK = "locks"
STORED_TECHNIQUES = ("base", "mesti", "emesti", "emesti+lvp")
NEW_TECHNIQUES = ("base", "emesti")

#: Closed-loop clients: at most one per core, and two at most.
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: Cache-served jobs per new-cell job: the mix that fills both
#: percentile floors together (``hit_job_ms_p95`` needs 200 samples,
#: ``new_job_ms_p90`` 100).  The cells workloads' 8 per new cell would
#: take about 900 jobs, some 50 s on a 2-core host, to reach 100 new.
HITS_PER_NEW = 2
#: Jobs per second the 2-core development host sustained with its CPU
#: slow (16-19); with ``--seconds`` it sizes a session.
JOBS_PER_S = 16
#: Rounds that leave :data:`common.MIN_BEYOND` samples above
#: ``new_job_ms_p90`` and ``hit_job_ms_p95``.
FLOOR_ROUNDS = max(common.min_samples(90),
                   math.ceil(common.min_samples(95) / HITS_PER_NEW))
SETUP_REPEATS = 3
#: Store calls at each end of a run whose median ``store_ms_*`` reports.
STORE_EDGE = 20
HTTP_TIMEOUT = 60.0


def _request(port: int, method: str, path: str, body: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get_json(port: int, path: str):
    status, raw = _request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(raw)


def _follow(port: int, job: str) -> tuple[str, set[str], bool]:
    """Read the job's event stream up to ``job.completed``.

    Returns the completion reason, the set of event names seen, and
    whether the stream ended without ``job.completed``.  The server
    ends a stream once it sees the job terminal, and can see that
    before it has sent the last events; the job's status then comes
    from ``GET /jobs/{id}``.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    seen: set[str] = set()
    try:
        conn.request("GET", f"/jobs/{job}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"events for {job} answered {response.status}")
        for line in response:
            record = json.loads(line)
            seen.add(record["event"])
            if record["event"] == "job.completed" and record.get("job") == job:
                return record["reason"], seen, False
    finally:
        conn.close()
    return _get_json(port, f"/jobs/{job}")["status"], seen, True


def _proc_children() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro-sim serve`` process on its own state root."""

    def __init__(self, root: Path, layers_dir: Path | None = None):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        serve = ["serve", "--port", "0", "--workers", "1",
                 "--root", str(root / "state")]
        if layers_dir is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(layers_dir), *serve]
        self.log_path = root / "server.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            env=common.subprocess_env(), cwd=root,
        )
        self.port: int | None = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Wait for the listening line, then for ``/healthz``."""
        deadline = time.perf_counter() + timeout
        marker = b"repro-sim service on http://"
        while self.port is None:
            text = self.log_path.read_bytes()
            if marker in text:
                address = text.split(marker, 1)[1].split(None, 1)[0]
                self.port = int(address.rsplit(b":", 1)[1])
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    "server did not start: " + text.decode(errors="replace")[-500:]
                )
            time.sleep(0.01)
        while True:
            try:
                if _request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def descendants(self) -> list[int]:
        children = _proc_children()
        found, todo = [], [self.proc.pid]
        while todo:
            for child in children.get(todo.pop(), ()):
                found.append(child)
                todo.append(child)
        return found

    def cpu_seconds(self) -> float:
        """CPU time the server and its pool worker have used so far
        (children that have exited and been waited for included).  The
        kernel's accounting leaves out time the host took the CPU away."""
        ticks = 0
        for pid in [self.proc.pid, *self.descendants()]:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            # utime, stime, cutime, cstime: fields 14-17 of stat(5).
            ticks += sum(map(int, stat.rsplit(")", 1)[1].split()[11:15]))
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server plus its pool worker."""
        pids = [self.proc.pid, *self.descendants()]
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024

    def stop(self) -> None:
        """SIGINT (graceful stop), then wait for every process to end."""
        leftovers = self.descendants()
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._log.close()
            deadline = time.perf_counter() + 10
            for pid in leftovers:
                while Path(f"/proc/{pid}").exists():
                    if time.perf_counter() > deadline:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except OSError:
                            pass
                        deadline += 10
                    time.sleep(0.01)


def _spec(techniques, seeds) -> dict:
    return {"benchmarks": [BENCHMARK], "techniques": list(techniques),
            "seeds": list(seeds), "scale": SCALE}


def run_job(port: int, spec: dict) -> dict:
    """Submit one job and follow it to completion; returns its record."""
    start = time.perf_counter()
    status, raw = _request(port, "POST", "/jobs", spec)
    submitted = time.perf_counter()
    if status != 202:
        raise RuntimeError(f"POST /jobs answered {status}: {raw[:200]!r}")
    doc = json.loads(raw)
    reason, seen, truncated = _follow(port, doc["job"])
    return {
        "job": doc["job"], "cells": doc["cells"], "reason": reason,
        "seen": seen, "latency_s": time.perf_counter() - start,
        "submit_s": submitted - start, "truncated": truncated,
    }


def stages(trace_jsonl: bytes) -> dict[str, float] | None:
    """Per-stage milliseconds of a one-cell job, from its service spans."""
    begins: dict[int, tuple[str, float]] = {}
    spans: dict[str, list[tuple[float, float | None]]] = {}
    ends: dict[int, float] = {}
    for line in trace_jsonl.splitlines():
        row = json.loads(line)
        if "meta" in row or row.get("clock") == "cycles":
            continue
        if row["kind"] == "span.begin":
            begins[row["span"]] = (row["name"], row["ts"])
        elif row["kind"] == "span.end":
            ends[row["span"]] = row["ts"]
    for span, (name, begin) in begins.items():
        spans.setdefault(name, []).append((begin, ends.get(span)))
    try:
        (job_b, job_e), = spans["job"]
        leases = spans["cell.lease"]
        lease_b, lease_e = leases[0][0], leases[-1][1]
        (work_b, work_e), = spans.get("cell.run") or spans["cell.cache_hit"]
    except (KeyError, ValueError):
        return None
    if None in (job_e, lease_e, work_e):
        return None
    out = {
        "queue_wait": lease_b - job_b,
        "dispatch": work_b - lease_b,
        "store": lease_e - work_e,
        "emit": job_e - lease_e,
        "total": job_e - job_b,
    }
    if "cell.run" in spans:
        out["run"] = work_e - work_b
    return {k: v / 1e3 for k, v in out.items()}


@dataclass
class Session:
    """One server's closed-loop run."""

    jobs: list[dict] = field(default_factory=list)
    stored: list[tuple[str, int]] = field(default_factory=list)
    elapsed: float = 0.0
    #: CPU time the host took from the VM during the session.
    steal_s: float = 0.0
    errors: list[str] = field(default_factory=list)


def warm_up(server: Server, seed: int) -> list[tuple[str, int]]:
    """Simulate and store the cells later jobs resubmit."""
    seeds = sorted({common.DEFAULT_SEED, seed})
    job = run_job(server.port, _spec(STORED_TECHNIQUES, seeds))
    if job["reason"] != "done":
        raise RuntimeError(f"warm-up job ended {job['reason']}")
    return [(technique, s) for s in seeds for technique in STORED_TECHNIQUES]


def _percentile_counts(session: Session) -> dict[str, tuple[int, float]]:
    done = [job["kind"] for job in session.jobs if job["reason"] == "done"]
    return {"new": (done.count("new"), 90), "hit": (done.count("hit"), 95)}


def session_rounds(seconds: float, floor: bool) -> int:
    """Rounds (:data:`HITS_PER_NEW` hit jobs, then one new-cell job) in
    a session: about ``seconds`` of jobs at :data:`JOBS_PER_S`, one
    per client at least, and with ``floor`` never fewer than leave
    :data:`common.MIN_BEYOND` samples above ``new_job_ms_p90`` and
    ``hit_job_ms_p95``."""
    rounds = max(CLIENTS, round(seconds * JOBS_PER_S / (HITS_PER_NEW + 1)))
    return max(rounds, FLOOR_ROUNDS) if floor else rounds


def closed_loop(server: Server, seed: int, rounds: int,
                stored: list[tuple[str, int]], fetch_traces: bool) -> Session:
    """Drive the server with :data:`CLIENTS` clients for ``rounds``
    rounds, shared out between them.

    A session is a fixed number of jobs, not a fixed time: the queue
    state and the result store grow with every job, and with them the
    cost of the next, so a session that ran for a fixed time on a
    faster host would do more jobs and time later, dearer ones.
    """
    session = Session(stored=stored)
    lock = threading.Lock()
    stolen = steal_seconds()
    start = time.perf_counter()

    def client(c: int) -> None:
        mine = stored[c::CLIENTS]
        n_hit = n_new = 0
        jobs = len(range(c, rounds, CLIENTS)) * (HITS_PER_NEW + 1)
        for i in range(jobs):
            if i % (HITS_PER_NEW + 1) == HITS_PER_NEW:
                kind = "new"
                technique = NEW_TECHNIQUES[n_new % len(NEW_TECHNIQUES)]
                # From 10**6 up: never a stored cell's seed.
                cell_seed = (abs(seed) + 1) * 1_000_000 + c * 100_000 + n_new
                n_new += 1
            else:
                kind = "hit"
                technique, cell_seed = mine[n_hit % len(mine)]
                n_hit += 1
            try:
                job = run_job(server.port, _spec([technique], [cell_seed]))
                if fetch_traces:
                    status, raw = _request(
                        server.port, "GET", f"/jobs/{job['job']}/trace",
                    )
                    job["stages"] = stages(raw) if status == 200 else None
            except (OSError, RuntimeError, ValueError) as exc:
                job = {"reason": f"error: {exc!r}", "cells": [], "seen": set()}
            job.update(kind=kind, technique=technique, seed=cell_seed)
            with lock:
                session.jobs.append(job)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    session.elapsed = time.perf_counter() - start
    session.steal_s = steal_seconds() - stolen
    return session


def _drops(port: int) -> tuple[float, float, dict[str, float]]:
    """Event-ring drops (``/metrics``), job-trace drops (``/telemetry``),
    and the ``repro_service_events_total`` series."""
    metrics = _request(port, "GET", "/metrics")[1].decode()
    events_dropped = 0.0
    totals: dict[str, float] = {}
    for line in metrics.splitlines():
        if line.startswith("repro_service_events_dropped_total"):
            events_dropped = float(line.split()[-1])
        elif line.startswith("repro_service_events_total{"):
            name = line.split('event="', 1)[1].split('"', 1)[0]
            totals[name] = float(line.split()[-1])
    telemetry = _get_json(port, "/telemetry")
    return events_dropped, float(telemetry["traces"]["dropped"]), totals


def fetch_served(session: Session, port: int) -> dict:
    """``GET /results/{fingerprint}`` for each distinct cell of a session."""
    served = {}
    for job in session.jobs:
        for fingerprint in job["cells"]:
            if fingerprint not in served:
                status, raw = _request(port, "GET", f"/results/{fingerprint}")
                served[fingerprint] = json.loads(raw) if status == 200 else None
    return served


@dataclass
class Serial:
    """The serial re-runs of a session's cells: committed ops and
    seconds, corrected for the host's speed and as measured."""

    committed: int = 0
    seconds: float = 0.0
    raw_seconds: float = 0.0
    speed_note: str = ""


def check_session(session: Session, served: dict,
                  reference: common.Reference, outcome: Outcome) -> Serial:
    """Every job done, and every served summary equal to a serial run
    of the same cell (and to the reference digest, where one exists).

    The serial runs give ``sim_kips``: ``System.run`` is timed in this
    process's CPU time, on one CPU and with a probe after each cell
    (see :mod:`perfbench.hostspeed`).  Only the simulation is timed:
    these cells are so small that building the system takes about two
    thirds of each, and that part did not always slow with the host as
    the probe did.
    """
    from repro.experiments.runner import MatrixRunner, run_cell
    from repro.system.system import System

    configs = {}
    bad: dict[str, str] = {}
    timed = Serial()
    speed = HostSpeed(probe)
    run_s: list[float] = []
    original_run = System.run

    def timed_run(system, *args, **kwargs):
        start = CLOCK()
        try:
            return original_run(system, *args, **kwargs)
        finally:
            run_s.append(CLOCK() - start)

    allowed = pin_to_one_cpu()
    System.run = timed_run
    try:
        for fingerprint, doc in served.items():
            if doc is None:
                bad[fingerprint] = "GET /results answered no summary"
                continue
            technique, seed = doc["technique"], doc["seed"]
            if technique not in configs:
                configs[technique] = MatrixRunner(
                    scale=SCALE, results_dir=os.devnull, verbose=False,
                ).cell_config(technique)
            serial = run_cell(configs[technique], BENCHMARK, SCALE, seed)
            simulated = run_s.pop()
            timed.seconds += speed.correct(simulated)[0]
            timed.raw_seconds += simulated
            timed.committed += serial["committed"]
            problems = reference.check(SCALE, BENCHMARK, technique, seed, doc["summary"])
            if common.digest(doc["summary"]) != common.digest(serial):
                problems.append("served summary differs from the serial cell's")
            if problems:
                bad[fingerprint] = "; ".join(problems)
        timed.speed_note = speed.note("interpreter")
    finally:
        System.run = original_run
        unpin(allowed)
    for job in session.jobs:
        outcome.attempted += 1
        label = f"{job['kind']} job {job.get('job', '?')}"
        if job["reason"] != "done":
            outcome.fail(label, f"ended {job['reason']}")
        elif job["kind"] == "hit" and "cell.started" in job["seen"]:
            outcome.fail(label, "resubmitted cell was simulated again")
        elif job["kind"] == "new" and "cell.started" not in job["seen"]:
            outcome.fail(label, "new cell was not simulated")
        elif any(fp in bad for fp in job["cells"]):
            outcome.fail(label, bad[next(fp for fp in job["cells"] if fp in bad)])
    return timed


def _latencies(session: Session, kind: str) -> list[float]:
    return [
        job["latency_s"] * 1e3 for job in session.jobs
        if job["kind"] == kind and job["reason"] == "done"
    ] or [float("nan")]


def _session_notes(session: Session, drops: tuple[float, float, dict]) -> list[str]:
    hits = sum(job["kind"] == "hit" for job in session.jobs)
    notes = [
        f"samples: hit={hits} new={len(session.jobs) - hits} "
        f"({session.elapsed:.1f}s measured, {CLIENTS} clients); the host took "
        f"{session.steal_s:.2f} CPU-s from the VM meanwhile (as measured: "
        "the job latencies include it)",
    ]
    events_dropped, traces_dropped, _totals = drops
    if events_dropped or traces_dropped:
        notes.append(
            f"WARNING: buffers dropped records: event ring {events_dropped:.0f}, "
            f"job traces {traces_dropped:.0f}"
        )
    truncated = sum(job.get("truncated", False) for job in session.jobs)
    if truncated:
        notes.append(
            f"WARNING: {truncated} event streams ended before job.completed "
            "(status read from GET /jobs/{id})"
        )
    return notes


def run_session(workdir: Path, seed: int, rounds: int,
                reference: common.Reference, outcome: Outcome,
                setups: int, layers_dir: Path | None = None) -> dict:
    """Set up ``setups`` servers, drive the last for ``rounds`` rounds,
    check every answer.

    A session short of the percentile sample floor (jobs that failed)
    counts the shortfall as a failure.  A set-up is timed as the CPU
    time the server and its pool worker take to start, warm the pool
    and answer the warm-up job, corrected by file probes in this
    process taken just before it starts and once it is done (start-up
    is mostly imports, which slow as little as cache-served requests
    do).
    """
    setup_s = []
    file_probe = FileProbe(workdir / "probe")
    for i in range(setups):
        speed = HostSpeed(file_probe)
        server = Server(workdir / f"server{i}", layers_dir if i == setups - 1 else None)
        try:
            server.wait_ready()
            stored = warm_up(server, seed)
            setup_s.extend(speed.correct(server.cpu_seconds()))
        except BaseException:
            server.stop()
            raise
        if i < setups - 1:
            server.stop()
    try:
        session = closed_loop(server, seed, rounds, stored,
                              layers_dir is not None)
        drops = _drops(server.port)
        rss = server.peak_rss_mb()
        served = fetch_served(session, server.port)
    finally:
        server.stop()
    serial = check_session(session, served, reference, outcome)
    if rounds >= FLOOR_ROUNDS:
        for problem in common.shortfalls(_percentile_counts(session)):
            outcome.fail("percentile", problem)
    return {"session": session, "served": served, "drops": drops,
            "rss": rss, "setup_s": setup_s, "root": server.root / "state",
            "serial": serial}


def measure(seed: int, seconds: float, workdir: Path,
            reference: common.Reference) -> dict:
    """The untraced run: end-to-end metrics.

    ``sim_kips`` times the simulation in the serial re-runs of the
    session's cells that the correctness check makes in this process,
    corrected for the host's speed (see :func:`check_session`): the
    pool worker shares the two cores with the server and the clients,
    and no probe here can follow the core it ran on.  The job latencies
    and ``jobs_per_s`` are as measured.
    """
    outcome = Outcome()
    run = run_session(workdir, seed, session_rounds(seconds, floor=True),
                      reference, outcome, SETUP_REPEATS)
    session, serial = run["session"], run["serial"]
    hit_ms, new_ms = _latencies(session, "hit"), _latencies(session, "new")
    metrics = {
        "sim_kips": serial.committed / serial.seconds / 1e3
        if serial.seconds else 0.0,
        "hit_job_ms_p50": common.median(hit_ms),
        "hit_job_ms_p95": common.percentile(hit_ms, 95),
        "new_job_ms_p50": common.median(new_ms),
        "new_job_ms_p90": common.percentile(new_ms, 90),
        "jobs_per_s": len(session.jobs) / session.elapsed,
        "setup_s": common.median(run["setup_s"]),
        "peak_rss_mb": run["rss"],
    }
    notes = _session_notes(session, run["drops"]) + [
        f"serial re-runs: {serial.speed_note}, uncorrected sim_kips "
        f"{serial.committed / serial.raw_seconds / 1e3 if serial.raw_seconds else 0.0:.4g}",
    ]
    return {"outcome": outcome, "metrics": metrics, "notes": notes}


def _kb(paths) -> float:
    return sum(p.stat().st_size for p in paths if p.is_file()) / 1024


def measure_traced(seed: int, seconds: float, workdir: Path,
                   reference: common.Reference) -> dict:
    """An untraced session, then a traced one, of the same number of
    jobs (about ``seconds`` of them): per-layer metrics.

    The traced server wraps the service classes in its own process and
    the simulator layers in its pool worker (see ``traced_serve.py``);
    both write their layer totals under ``layers_dir`` on exit.
    """
    from .cells import layer_metrics

    outcome = Outcome()
    rounds = session_rounds(seconds, floor=False)
    plain = run_session(workdir / "untraced", seed, rounds, reference,
                        outcome, 1)
    layers_dir = workdir / "layers"
    layers_dir.mkdir(parents=True, exist_ok=True)
    traced = run_session(workdir / "traced", seed, rounds, reference,
                         outcome, 1, layers_dir=layers_dir)
    session = traced["session"]
    server = json.loads((layers_dir / "server.json").read_text())
    worker = _merge_workers(layers_dir)
    metrics = layer_metrics(worker["snapshot"], worker["counts"])
    metrics["trace.unattributed_s"] = max(
        worker["cell_s"] - sum(
            s for layer, s in worker["snapshot"]["self_s"].items()
            if layer is not None
        ), 0.0,
    )
    per_job = lambda run: run["session"].elapsed / max(len(run["session"].jobs), 1)  # noqa: E731
    metrics["trace.overhead"] = per_job(traced) / per_job(plain)
    staged = [job for job in session.jobs if job.get("stages")]

    def stage_ms(name: str, p: float = 50) -> float:
        values = [job["stages"][name] for job in staged if name in job["stages"]]
        return common.percentile(values, p) if values else 0.0

    coverage = [job["stages"]["total"] / (job["latency_s"] * 1e3) for job in staged]
    # The job span opens once POST /jobs is handled: the round trip
    # before it is the part of a job's latency no stage covers.
    with_submit = [
        (job["stages"]["total"] + job["submit_s"] * 1e3) / (job["latency_s"] * 1e3)
        for job in staged
    ]
    self_s = server["self_s"]
    stores = server["durations"].get("service.store.store", [])
    events_dropped, traces_dropped, totals = traced["drops"]
    hits, started = totals.get("cell.cache_hit", 0.0), totals.get("cell.started", 0.0)
    state = traced["root"]
    metrics.update({
        "service.stage.queue_wait_ms_p50": stage_ms("queue_wait"),
        "service.stage.queue_wait_ms_p95": stage_ms("queue_wait", 95),
        "service.stage.dispatch_ms_p50": stage_ms("dispatch"),
        "service.stage.run_ms_p50": stage_ms("run"),
        "service.stage.store_ms_p50": stage_ms("store"),
        "service.stage.emit_ms_p50": stage_ms("emit"),
        "service.stage.coverage_ratio": common.median(coverage) if coverage else 0.0,
        "service.queue.self_ms": self_s.get("service.queue", 0.0) * 1e3,
        "service.queue.state_kb": _kb([state / "queue" / "state.json"]),
        "service.store.self_ms": self_s.get("service.store", 0.0) * 1e3,
        "service.store.store_ms_first": common.median(stores[:STORE_EDGE]) * 1e3
        if stores else 0.0,
        "service.store.store_ms_last": common.median(stores[-STORE_EDGE:]) * 1e3
        if stores else 0.0,
        "service.store.cache_kb": _kb((state / "results").iterdir()),
        "service.events.self_ms": self_s.get("service.events", 0.0) * 1e3,
        "service.events.dropped": events_dropped,
        "obs.jobtrace.self_ms": self_s.get("obs.jobtrace", 0.0) * 1e3,
        "obs.jobtrace.dropped": traces_dropped,
        "service.cache_hit_ratio": hits / (hits + started) if hits + started else 0.0,
        "service.api.submit_rtt_ms_p50": common.median(
            [job["submit_s"] * 1e3 for job in session.jobs if "submit_s" in job]
        ),
        "service.api.stream_truncated": sum(
            job.get("truncated", False) for job in session.jobs
        ),
    })
    notes = _session_notes(session, traced["drops"]) + [
        f"stage spans parsed for {len(staged)} of {len(session.jobs)} jobs; "
        f"median stage sum / client latency {metrics['service.stage.coverage_ratio']:.3f}, "
        f"with the POST /jobs round trip added {common.median(with_submit or [0.0]):.3f}",
        f"worker: {worker['cells']} traced cells, {worker['cell_s']:.2f}s in run_cell",
    ]
    return {"outcome": outcome, "metrics": metrics, "notes": notes}


def _merge_workers(layers_dir: Path) -> dict:
    """Sum the pool workers' layer totals (one file per worker pid)."""
    merged = {"snapshot": {"self_s": {}, "calls": {}, "counts": {}},
              "counts": {}, "cell_s": 0.0, "cells": 0}
    for path in sorted(layers_dir.glob("worker-*.json")):
        doc = json.loads(path.read_text())
        for part in ("self_s", "calls", "counts"):
            target = merged["snapshot"][part]
            for key, value in doc["snapshot"][part].items():
                key = None if key == "null" else key
                target[key] = target.get(key, 0) + value
        for key, value in doc["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        merged["cell_s"] += doc["cell_s"]
        merged["cells"] += doc["cells"]
    if not merged["counts"]:
        from .cells import sim_counts

        merged["counts"] = sim_counts([])
    return merged
