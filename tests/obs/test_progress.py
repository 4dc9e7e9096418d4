"""Sweep telemetry: the per-cell run manifest."""

from __future__ import annotations

import pytest

from repro.obs.progress import RunManifest


class TestRunManifest:
    def make(self):
        manifest = RunManifest(
            label="bench", scale=0.05, fingerprint="abcd1234", workers=2
        )
        manifest.record("a|base|1", "ran", worker=123, retries=1,
                        wall_seconds=2.0)
        manifest.record("a|emesti|1", "cached")
        return manifest

    def test_counts(self):
        manifest = self.make()
        assert manifest.ran == 1
        assert manifest.cached == 1
        assert manifest.retries == 1

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError, match="unknown manifest status"):
            self.make().record("x", "skipped")

    def test_rerecord_overwrites(self):
        manifest = self.make()
        manifest.record("a|base|1", "cached")
        assert manifest.ran == 0
        assert manifest.cached == 2

    def test_save_load_round_trip(self, tmp_path):
        manifest = self.make()
        path = manifest.save(tmp_path / "m.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded == manifest
        assert loaded.to_json()["schema"] == RunManifest.SCHEMA

    def test_saved_manifest_is_byte_stable(self, tmp_path):
        # A fully cached rerun must rewrite the identical file, so CI
        # diffs stay quiet: no wall-clock dates, sorted keys.
        first = self.make().save(tmp_path / "a.json").read_text()
        second = self.make().save(tmp_path / "b.json").read_text()
        assert first == second
