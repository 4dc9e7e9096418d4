"""Parallel-run telemetry: per-cell progress events and run manifests.

While a :class:`~repro.experiments.runner.MatrixRunner` fans cells out
over worker processes, the only signal used to be a log line per
finished cell.  This module adds two observability surfaces:

* :class:`MatrixProgress` renders :class:`CellUpdate` events —
  start / finish / retry / timeout, worker pid, wall time — as a live
  single-line progress display on a TTY (falling back to plain log
  lines otherwise);
* :class:`RunManifest` persists the same telemetry next to the result
  cache (``<cache>.manifest.json``): for every cell, whether it was
  served from cache or ran, which worker ran it, how many retries it
  took, and its wall time.  CI uploads the manifest as an artifact, so
  a flaky or slow cell is diagnosable after the fact.

Timestamps are deliberately relative (``time.perf_counter`` deltas):
the manifest must be byte-stable across reruns of a fully cached
matrix, and simlint's SL001 bans wall-clock reads in ``src/repro``.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger("repro.progress")

#: The event vocabulary carried by :class:`CellUpdate`.
UPDATE_KINDS = ("start", "finish", "retry", "timeout")


@dataclass
class CellUpdate:
    """One telemetry event for one matrix cell."""

    kind: str  # one of UPDATE_KINDS
    key: str  # "benchmark|technique|seed"
    worker: int | None = None  # pid that produced the summary
    wall_seconds: float | None = None
    retries: int = 0
    error: str | None = None  # failure text for retry/timeout events

    def __post_init__(self):
        if self.kind not in UPDATE_KINDS:
            raise ValueError(f"unknown cell update kind {self.kind!r}")


class MatrixProgress:
    """Renders cell updates as a live progress line (or log lines).

    On a TTY ``stream`` the display is a single ``\\r``-rewritten line
    (``label 3/8 done, 1 running, 1 retried — last tpc-b|emesti|1
    2.1s``); otherwise every finish/retry/timeout becomes one log
    record, so redirected output stays readable.
    """

    def __init__(self, total: int, label: str = "matrix", stream=None,
                 live: bool | None = None):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.live = (
            live if live is not None
            else bool(getattr(self.stream, "isatty", lambda: False)())
        )
        self.done = 0
        self.running = 0
        self.retried = 0
        self.last: CellUpdate | None = None
        self._start = time.perf_counter()

    def update(self, event: CellUpdate) -> None:
        """Fold one event into the display state and re-render."""
        if event.kind == "start":
            self.running += 1
        elif event.kind == "finish":
            self.done += 1
            self.running = max(0, self.running - 1)
            self.last = event
        elif event.kind in ("retry", "timeout"):
            self.retried += 1
        if self.live:
            self._render()
        elif event.kind in ("retry", "timeout"):
            # Failures are always worth a log line; routine finishes
            # stay at DEBUG (the runner already logs each cell).
            log.info("%s", self._line(event))
        elif event.kind == "finish":
            log.debug("%s", self._line(event))

    def _line(self, event: CellUpdate) -> str:
        bits = [f"{self.label} {self.done}/{self.total} done"]
        if self.running:
            bits.append(f"{self.running} running")
        if self.retried:
            bits.append(f"{self.retried} retried")
        if event.kind in ("retry", "timeout"):
            bits.append(f"{event.kind} {event.key}: {event.error or '?'}")
        elif event.key:
            detail = f"last {event.key}"
            if event.wall_seconds is not None:
                detail += f" {event.wall_seconds:.1f}s"
            bits.append(detail)
        return ", ".join(bits)

    def _render(self) -> None:
        line = self._line(self.last or CellUpdate("finish", ""))
        self.stream.write("\r" + line.ljust(79)[:200])
        self.stream.flush()

    def close(self) -> None:
        """Finish the live line (newline) and log the total wall time."""
        elapsed = time.perf_counter() - self._start
        if self.live:
            self.stream.write("\n")
            self.stream.flush()
        log.debug(
            "%s: %d/%d cells in %.1fs (%d retried)",
            self.label, self.done, self.total, elapsed, self.retried,
        )


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
