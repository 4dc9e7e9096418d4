"""Progress: run heartbeats and the per-cell sweep manifest.

A long :meth:`~repro.system.system.System.run` reports itself through
:class:`Heartbeat`: every N simulated cycles, one progress line
(cycles, committed ops, IPC-so-far, events/sec) on the
``repro.heartbeat`` logger (``repro-sim run --heartbeat N``).

Progress while a :class:`~repro.experiments.runner.MatrixRunner`
sweep runs is the runner's own log line per stored cell
(``repro.runner``), the same for serial and pooled sweeps.  After the
sweep, ``runner.manifest`` is a :class:`RunManifest`: for every cell,
whether the store served it or it ran.  It lives in memory only; a
cell's worker, retries and wall time are fields of its stored summary.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

log = logging.getLogger("repro.heartbeat")


class Heartbeat:
    """Periodic progress reporting for long simulations.

    Every ``interval`` cycles, logs the simulated cycle count and the
    metrics supplied by ``progress`` (a callable returning a dict, e.g.
    committed ops and IPC-so-far), plus the wall-clock event rate.
    The heartbeat stops rescheduling itself once ``stop`` returns True,
    so it never keeps the event queue alive after the run finishes, or
    once no other event is queued, so it never keeps a stalled run
    alive until its cycle limit either.
    """

    def __init__(
        self,
        scheduler,
        interval: int,
        progress: Callable[[], dict] | None = None,
        stop: Callable[[], bool] | None = None,
    ):
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.scheduler = scheduler
        self.interval = interval
        self.progress = progress
        self.stop = stop
        self.beats = 0
        self._last_events = scheduler.events_fired
        self._last_wall = time.perf_counter()
        scheduler.after(interval, self._tick)

    def _tick(self) -> None:
        self.beats += 1
        now_wall = time.perf_counter()
        events = self.scheduler.events_fired
        rate = (events - self._last_events) / max(now_wall - self._last_wall, 1e-9)
        self._last_events, self._last_wall = events, now_wall
        extra = ""
        if self.progress is not None:
            parts = [f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in self.progress().items()]
            extra = " " + " ".join(parts)
        log.info(
            "cycle=%d events=%d events/s=%.0f%s",
            self.scheduler.now, events, rate, extra,
        )
        if (self.stop is None or not self.stop()) and self.scheduler.pending():
            self.scheduler.after(self.interval, self._tick)


@dataclass
class RunManifest:
    """Which cells of one matrix sweep the store served.

    ``cells`` maps matrix keys to ``{"status": "cached"|"ran"}``.
    """

    cells: dict[str, dict] = field(default_factory=dict)

    def record(self, key: str, status: str) -> None:
        """Record one cell's ``status``: cached / ran."""
        if status not in ("cached", "ran"):
            raise ValueError(f"unknown manifest status {status!r}")
        self.cells[key] = {"status": status}

    @property
    def ran(self) -> int:
        """Number of cells that actually executed."""
        return sum(1 for c in self.cells.values() if c["status"] == "ran")

    @property
    def cached(self) -> int:
        """Number of cells served from the result cache."""
        return sum(1 for c in self.cells.values() if c["status"] == "cached")
