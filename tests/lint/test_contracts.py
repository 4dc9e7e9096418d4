"""Fixture pairs for the dataflow contract rules (SL204-205)."""

from __future__ import annotations

import textwrap

from repro.lint import run_lint


def _write(tmp_path, rel: str, source: str):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('"""Fixture."""\n' + textwrap.dedent(source))


def _lint(tmp_path, rule: str):
    return run_lint(paths=[tmp_path], rules=[rule], audit=False)


# ---------------------------------------------------------------------------
# SL204 — nondeterminism tainting a determinism-bearing sink
# ---------------------------------------------------------------------------


def test_sl204_flags_clock_flowing_into_fingerprint(tmp_path):
    _write(tmp_path, "exp/mod.py", """
        import time

        from repro.experiments.runner import cell_fingerprint


        def key(config, benchmark):
            stamp = time.time()
            return cell_fingerprint(config, benchmark, stamp)
    """)
    result = _lint(tmp_path, "SL204")
    assert [f.rule for f in result.findings] == ["SL204"]


def test_sl204_tracks_taint_through_assignments(tmp_path):
    """The dataflow part: the clock value passes through two local
    rebindings before hitting the sink."""
    _write(tmp_path, "exp/mod.py", """
        import time

        from repro.experiments.runner import cell_fingerprint


        def key(config, benchmark):
            raw = time.time()
            salt = raw * 2
            return cell_fingerprint(config, benchmark, salt)
    """)
    assert _lint(tmp_path, "SL204").findings


def test_sl204_reassignment_kills_taint(tmp_path):
    """Overwriting the name with a clean value must clear it — a
    taint set that only grows would flag half the runner."""
    _write(tmp_path, "exp/mod.py", """
        import time

        from repro.experiments.runner import cell_fingerprint


        def key(config, benchmark):
            stamp = time.time()
            stamp = 0
            return cell_fingerprint(config, benchmark, stamp)
    """)
    assert _lint(tmp_path, "SL204").clean


def test_sl204_flags_tainted_event_payload_field(tmp_path):
    """A wall-clock reading in a *deterministic* event field breaks
    byte-identical event logs across runs."""
    _write(tmp_path, "service/mod.py", """
        import time


        class Thing:
            def __init__(self, events):
                self.events = events

            def go(self, job):
                started = time.time()
                self.events.emit("job.enqueued", job=job, cells=started)
    """)
    result = _lint(tmp_path, "SL204")
    assert [f.rule for f in result.findings] == ["SL204"]


def test_sl204_allows_taint_in_declared_nondeterministic_field(tmp_path):
    """NONDETERMINISTIC_FIELDS (wall_seconds & co.) may carry clock
    readings — that is what the allowlist is for."""
    _write(tmp_path, "service/mod.py", """
        import time


        class Thing:
            def __init__(self, events):
                self.events = events

            def go(self, job):
                started = time.time()
                self.events.emit("job.enqueued", job=job,
                                 wall_seconds=started)
    """)
    assert _lint(tmp_path, "SL204").clean


# ---------------------------------------------------------------------------
# SL205 — emit payloads / metric reads vs their declarations
# ---------------------------------------------------------------------------


def test_sl205_flags_emit_missing_required_field(tmp_path):
    """job.enqueued declares (job, cells); dropping one would raise
    at runtime — the cross-check catches it statically."""
    _write(tmp_path, "service/mod.py", """
        class Thing:
            def __init__(self, events):
                self.events = events

            def go(self, job):
                self.events.emit("job.enqueued", job=job)
    """)
    result = _lint(tmp_path, "SL205")
    assert [f.rule for f in result.findings] == ["SL205"]
    assert "cells" in result.findings[0].message


def test_sl205_passes_complete_emit(tmp_path):
    _write(tmp_path, "service/mod.py", """
        class Thing:
            def __init__(self, events):
                self.events = events

            def go(self, job):
                self.events.emit("job.enqueued", job=job, cells=3)
    """)
    assert _lint(tmp_path, "SL205").clean


def test_sl205_resolves_single_assignment_dict_splat(tmp_path):
    """`emit(name, **payload)` checks through one all-literal dict."""
    _write(tmp_path, "service/mod.py", """
        class Thing:
            def __init__(self, events):
                self.events = events

            def go(self, job):
                payload = {"job": job}
                self.events.emit("job.enqueued", **payload)
    """)
    result = _lint(tmp_path, "SL205")
    assert [f.rule for f in result.findings] == ["SL205"]


def test_sl205_flags_read_of_undeclared_metric_family(tmp_path):
    _write(tmp_path, "service/mod.py", """
        class Probe:
            def __init__(self, metrics):
                self.metrics = metrics
                self.metrics.counter("repro_cells_total", "cells run")

            def snapshot(self):
                return self.metrics.get("repro_cels_total")
    """)
    result = _lint(tmp_path, "SL205")
    assert [f.rule for f in result.findings] == ["SL205"]
    assert "repro_cels_total" in result.findings[0].message


def test_sl205_passes_read_of_declared_metric_family(tmp_path):
    _write(tmp_path, "service/mod.py", """
        class Probe:
            def __init__(self, metrics):
                self.metrics = metrics
                self.metrics.counter("repro_cells_total", "cells run")

            def snapshot(self):
                return self.metrics.get("repro_cells_total")
    """)
    assert _lint(tmp_path, "SL205").clean


def test_sl205_passes_read_of_run_export_family(tmp_path):
    # Families of the run export table are declared by the table
    # itself, not by a counter()/gauge()/histogram() call.
    _write(tmp_path, "analysis/mod.py", """
        def silent_stores(result):
            metrics = result.metrics
            return metrics.total("repro_ts_stores_total")
    """)
    assert _lint(tmp_path, "SL205").clean
