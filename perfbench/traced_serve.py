"""Start ``repro-sim serve`` with layer wrappers installed.

    python3 perfbench/traced_serve.py LAYERS_DIR serve [serve options]

In the server process the service classes are wrapped: ``JobQueue``
(``service.queue``), ``ResultStore`` (``service.store``),
``EventLog.emit`` (``service.events``) and ``JobTraceStore``
(``obs.jobtrace``).  ``run_cell`` is replaced by a wrapper that, in
each pool worker, wraps the simulator layers on its first cell and
rewrites ``LAYERS_DIR/worker-<pid>.json`` after every cell.  When the
server stops (SIGINT), its own totals go to ``LAYERS_DIR/server.json``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.layers import LayerClock, Wrapping, wrap_simulator  # noqa: E402


def _write_json(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, default=str))
    os.replace(tmp, path)


def wrap_service(wrapping: Wrapping) -> None:
    """Wrap the service layers' entry points (server process)."""
    from repro.obs.jobtrace import JobTraceStore
    from repro.service.events import EventLog
    from repro.service.queue import JobQueue
    from repro.service.workers import ResultStore

    wrapping.public(JobQueue, "service.queue")
    wrapping.method(ResultStore, "store", "service.store",
                    durations="service.store.store")
    wrapping.public(ResultStore, "service.store")
    wrapping.method(EventLog, "emit", "service.events")
    wrapping.public(JobTraceStore, "obs.jobtrace")


def wrap_worker_cells(layers_dir: Path) -> None:
    """Trace the simulator inside each pool worker, cell by cell."""
    from perfbench.cells import sim_counts
    from repro.experiments import runner
    from repro.service import workers

    original = runner.run_cell
    server_pid = os.getpid()
    state: dict = {}

    @functools.wraps(original)
    def run_cell(*args, **kwargs):
        if os.getpid() == server_pid:
            return original(*args, **kwargs)
        if not state:
            clock = LayerClock()
            clock.calibrate()
            systems: list = []
            wrap_simulator(Wrapping(clock), systems)
            state.update(clock=clock, systems=systems, cell_s=0.0, cells=0,
                         counts=sim_counts([]))
        start = time.perf_counter()
        summary = original(*args, **kwargs)
        state["cell_s"] += time.perf_counter() - start
        state["cells"] += 1
        for key, value in sim_counts(state["systems"]).items():
            state["counts"][key] += value
        state["systems"].clear()
        _write_json(layers_dir / f"worker-{os.getpid()}.json", {
            "snapshot": state["clock"].snapshot(),
            "counts": state["counts"],
            "cell_s": state["cell_s"],
            "cells": state["cells"],
        })
        return summary

    # The shard hands ``workers.run_cell`` to the pool, which pickles
    # it by name: both names must be this wrapper.
    runner.run_cell = run_cell
    workers.run_cell = run_cell


def main(argv: list[str]) -> int:
    layers_dir = Path(argv[0])
    common.import_repro()
    from repro.cli import main as cli_main

    clock = LayerClock()
    clock.calibrate()
    wrapping = Wrapping(clock)
    wrap_service(wrapping)
    wrap_worker_cells(layers_dir)
    clock.reset()
    try:
        return cli_main(argv[1:])
    finally:
        snapshot = clock.snapshot()
        snapshot["self_s"] = {
            str(layer): seconds for layer, seconds in snapshot["self_s"].items()
        }
        _write_json(layers_dir / "server.json", snapshot)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
