"""Sweep telemetry: the per-cell run manifest."""

from __future__ import annotations

import pytest

from repro.obs.progress import RunManifest


class TestRunManifest:
    def make(self):
        manifest = RunManifest()
        manifest.record("a|base|1", "ran")
        manifest.record("a|emesti|1", "cached")
        return manifest

    def test_counts(self):
        manifest = self.make()
        assert manifest.ran == 1
        assert manifest.cached == 1
        assert manifest.cells["a|base|1"] == {"status": "ran"}

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError, match="unknown manifest status"):
            self.make().record("x", "skipped")

    def test_rerecord_overwrites(self):
        manifest = self.make()
        manifest.record("a|base|1", "cached")
        assert manifest.ran == 0
        assert manifest.cached == 2
