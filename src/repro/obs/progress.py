"""Progress: run heartbeats and the per-cell sweep manifest.

A long :meth:`~repro.system.system.System.run` reports itself through
:class:`Heartbeat`: every N simulated cycles, one progress line
(cycles, committed ops, IPC-so-far, events/sec) on the
``repro.heartbeat`` logger (``repro-sim run --heartbeat N``).

Progress while a :class:`~repro.experiments.runner.MatrixRunner`
sweep runs is the runner's own log line per stored cell
(``repro.runner``), the same for serial and pooled sweeps.  What
outlasts the sweep is the :class:`RunManifest`, kept next to the
stored cells (``matrix_scale<scale>.manifest.json``): for every cell,
whether it was served from the store or ran, which worker ran it, how
many retries it took, and its wall time.  CI uploads the manifest as
an artifact, so a flaky or slow cell is diagnosable after the fact.

The manifest holds no wall-clock dates: it must be byte-stable across
reruns of a fully cached matrix, and simlint's SL001 bans wall-clock
reads in ``src/repro``.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

log = logging.getLogger("repro.heartbeat")


class Heartbeat:
    """Periodic progress reporting for long simulations.

    Every ``interval`` cycles, logs the simulated cycle count and the
    metrics supplied by ``progress`` (a callable returning a dict, e.g.
    committed ops and IPC-so-far), plus the wall-clock event rate.
    The heartbeat stops rescheduling itself once ``stop`` returns True,
    so it never keeps the event queue alive after the run finishes.
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
        if self.stop is None or not self.stop():
            self.scheduler.after(self.interval, self._tick)


@dataclass
class RunManifest:
    """Per-cell provenance for one matrix sweep, persisted as JSON.

    ``cells`` maps cache keys to ``{"status": "cached"|"ran",
    "worker": pid|None, "retries": n, "wall_seconds": s}``.  No
    wall-clock dates on purpose — a fully cached rerun must produce an
    identical manifest.
    """

    SCHEMA = 1

    label: str
    scale: float
    fingerprint: str
    workers: int | None = None
    cells: dict[str, dict] = field(default_factory=dict)

    def record(
        self,
        key: str,
        status: str,
        worker: int | None = None,
        retries: int = 0,
        wall_seconds: float | None = None,
        provenance: dict | None = None,
    ) -> None:
        """Record one cell's provenance (``status``: cached / ran).

        ``provenance`` is the optional miss-provenance summary from a
        traced sweep (:meth:`repro.obs.provenance.ProvenanceReport.
        cell_summary`); the key is only written when present, so
        manifests from untraced sweeps are byte-identical to before.
        """
        if status not in ("cached", "ran"):
            raise ValueError(f"unknown manifest status {status!r}")
        self.cells[key] = {
            "status": status,
            "worker": worker,
            "retries": retries,
            "wall_seconds": wall_seconds,
        }
        if provenance is not None:
            self.cells[key]["provenance"] = provenance

    @property
    def ran(self) -> int:
        """Number of cells that actually executed."""
        return sum(1 for c in self.cells.values() if c["status"] == "ran")

    @property
    def cached(self) -> int:
        """Number of cells served from the result cache."""
        return sum(1 for c in self.cells.values() if c["status"] == "cached")

    @property
    def retries(self) -> int:
        """Total retries across all cells."""
        return sum(c["retries"] for c in self.cells.values())

    def to_json(self) -> dict:
        """JSON-safe document for persistence."""
        return {
            "schema": self.SCHEMA,
            "label": self.label,
            "scale": self.scale,
            "fingerprint": self.fingerprint,
            "workers": self.workers,
            "cells": self.cells,
        }

    def save(self, path: str | Path) -> Path:
        """Replace the manifest at ``path`` in one step and return it.

        Two sweeps sharing a results directory each write whole files,
        so a reader sees one of them, never a mix.
        """
        # Imported here: the experiments package imports this module.
        from repro.experiments.store import atomic_write

        path = Path(path)
        atomic_write(path, json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Read a manifest written by :meth:`save`."""
        data = json.loads(Path(path).read_text())
        return cls(
            label=data["label"],
            scale=data["scale"],
            fingerprint=data["fingerprint"],
            workers=data.get("workers"),
            cells=dict(data.get("cells", {})),
        )
