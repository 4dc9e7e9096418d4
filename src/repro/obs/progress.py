"""Sweep telemetry: the per-cell run manifest.

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
from dataclasses import dataclass, field
from pathlib import Path


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
