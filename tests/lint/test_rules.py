"""Per-rule fixtures: one source that triggers, one that passes."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import run_lint

# (rule id, triggering source, passing source) — the passing source
# exercises the *same shape* of code written the disciplined way, so a
# rule cannot pass these tests by matching everything.
FIXTURES = {
    "SL001": (
        """
        import random
        import time


        def jitter():
            return random.randrange(8) + int(time.time())
        """,
        """
        import time
        from repro.common.rng import SplitRng


        def jitter(rng: SplitRng):
            return rng.randrange(8) + int(time.perf_counter() * 0)
        """,
    ),
    "SL002": (
        """
        def arbitrate(entry):
            waiting = set(entry.sharers) | {entry.owner}
            for node in waiting:
                yield node
        """,
        """
        def arbitrate(entry):
            waiting = set(entry.sharers) | {entry.owner}
            for node in sorted(waiting):
                yield node
            total = sum(n for n in {1, 2, 3})
            return total
        """,
    ),
    "SL003": (
        """
        def order(lines):
            return sorted(lines, key=lambda line: id(line))
        """,
        """
        def order(lines):
            return sorted(lines, key=lambda line: line.base)
        """,
    ),
    "SL004": (
        """
        def should_validate(confidence):
            return confidence == 0.5
        """,
        """
        def should_validate(confidence):
            return confidence >= 0.5
        """,
    ),
    "SL005": (
        """
        def schedule_all(scheduler, txns):
            for txn in txns:
                scheduler.at(10, lambda: txn.fire())
        """,
        """
        def schedule_all(scheduler, txns):
            for txn in txns:
                scheduler.at(10, lambda txn=txn: txn.fire())
        """,
    ),
    "SL006": (
        """
        class Widget:
            def __init__(self, tracer=None):
                self.tracer = tracer
        """,
        """
        from repro.obs.tracer import NULL_TRACER


        class Widget:
            def __init__(self, tracer=NULL_TRACER):
                self.tracer = tracer
        """,
    ),
}


def lint_source(tmp_path, source: str, rule: str):
    """Write ``source`` to a module and run one rule over it."""
    path = tmp_path / "fixture.py"
    path.write_text('"""Fixture."""\n' + textwrap.dedent(source))
    return run_lint(paths=[tmp_path], rules=[rule])


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_triggers(tmp_path, rule):
    triggering, _ = FIXTURES[rule]
    result = lint_source(tmp_path, triggering, rule)
    assert result.findings, f"{rule} missed its trigger fixture"
    assert all(f.rule == rule for f in result.findings)
    assert all(f.path == "fixture.py" and f.line > 0 for f in result.findings)


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_passes_clean_shape(tmp_path, rule):
    _, passing = FIXTURES[rule]
    result = lint_source(tmp_path, passing, rule)
    assert result.clean, (
        f"{rule} false-positived on the disciplined variant: "
        f"{[f.message for f in result.findings]}"
    )


def test_sl001_exempts_rng_module(tmp_path):
    """common/rng.py may wrap the random module; everyone else may not."""
    rng_dir = tmp_path / "common"
    rng_dir.mkdir()
    source = '"""RNG."""\nimport random\n\n\ndef make():\n    return random.Random(0)\n'
    (rng_dir / "rng.py").write_text(source)
    assert run_lint(paths=[tmp_path], rules=["SL001"]).clean
    (rng_dir / "rogue.py").write_text(source)
    result = run_lint(paths=[tmp_path], rules=["SL001"])
    assert {f.path for f in result.findings} == {"common/rogue.py"}


def test_sl002_cross_file_set_attribute(tmp_path):
    """A set-annotated attribute in one file flags iteration in another."""
    (tmp_path / "entry.py").write_text(textwrap.dedent(
        '''
        """Entry."""
        from dataclasses import dataclass, field


        @dataclass
        class Entry:
            """Directory entry."""

            waiters: set[int] = field(default_factory=set)
        '''
    ))
    (tmp_path / "user.py").write_text(textwrap.dedent(
        '''
        """User."""


        def drain(entry):
            """Contact each waiter."""
            return [w for w in entry.waiters]
        '''
    ))
    result = run_lint(paths=[tmp_path], rules=["SL002"])
    assert [f.path for f in result.findings] == ["user.py"]


def test_sl005_immediate_call(tmp_path):
    source = """
    def arm(scheduler, cb):
        scheduler.after(5, cb())
    """
    result = lint_source(tmp_path, source, "SL005")
    assert len(result.findings) == 1
    assert "registration time" in result.findings[0].message


def test_sl006_guarded_emit_passes(tmp_path):
    source = """
    from repro.obs.tracer import NULL_TRACER


    def snapshot(tracer, nodes):
        if tracer is not NULL_TRACER:
            tracer.emit("snap", states=[n.state for n in nodes])
    """
    assert lint_source(tmp_path, source, "SL006").clean


def _write_module(tmp_path, rel: str, source: str):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('"""Fixture."""\n' + textwrap.dedent(source))


def test_sl008_flags_discarded_span_id(tmp_path):
    source = """
    class Controller:
        def issue(self):
            self.tracer.span_begin("txn", node=self.node_id)
    """
    _write_module(tmp_path, "coherence/ctrl.py", source)
    result = run_lint(paths=[tmp_path], rules=["SL008"])
    assert result.findings, "discarded span id must be flagged"
    assert any("discarded" in f.message for f in result.findings)


def test_sl008_flags_begin_only_module(tmp_path):
    source = """
    class Engine:
        def begin(self):
            self._span = self.tracer.span_begin("sle.region")
    """
    _write_module(tmp_path, "sle/engine.py", source)
    result = run_lint(paths=[tmp_path], rules=["SL008"])
    assert len(result.findings) == 1
    assert "never closes" in result.findings[0].message


def test_sl008_passes_disciplined_shapes(tmp_path):
    # Kept id + span_end in the same module; the context-manager
    # helper; and an end-only module (closing spans opened elsewhere,
    # the interconnect's role) are all disciplined.
    _write_module(tmp_path, "coherence/ctrl.py", """
    class Controller:
        def issue(self):
            sid = self.tracer.span_begin("txn")
            self.tracer.span_end(sid)
    """)
    _write_module(tmp_path, "lvp/unit.py", """
    class Unit:
        def resolve(self):
            with self.tracer.span("verify"):
                pass
    """)
    _write_module(tmp_path, "coherence/bus.py", """
    class Bus:
        def grant(self, txn):
            self.tracer.span_end(txn.span, node=txn.requester)
    """)
    assert run_lint(paths=[tmp_path], rules=["SL008"]).clean


def test_sl008_out_of_scope_passes(tmp_path):
    _write_module(tmp_path, "experiments/sweep.py", """
    def probe(tracer):
        tracer.span_begin("txn")
    """)
    assert run_lint(paths=[tmp_path], rules=["SL008"]).clean


def test_sl009_flags_undeclared_event_name(tmp_path):
    source = """
    class Shard:
        def serve(self, fingerprint):
            self.events.emit("cell.vibes", fingerprint=fingerprint)
    """
    _write_module(tmp_path, "service/workers.py", source)
    result = run_lint(paths=[tmp_path], rules=["SL009"])
    assert [f.path for f in result.findings] == ["service/workers.py"]
    assert "EVENT_SPECS" in result.findings[0].message


def test_sl009_flags_dynamic_event_name(tmp_path):
    source = """
    class Shard:
        def finish(self, phase, fingerprint):
            self.events.emit(f"cell.{phase}", fingerprint=fingerprint)
    """
    _write_module(tmp_path, "service/workers.py", source)
    result = run_lint(paths=[tmp_path], rules=["SL009"])
    assert len(result.findings) == 1
    assert "dynamically-built" in result.findings[0].message


def test_sl009_passes_declared_names(tmp_path):
    source = """
    class Shard:
        def serve(self, fingerprint):
            self.events.emit("cell.cache_hit", fingerprint=fingerprint)
            self.events.emit("cell.finished", fingerprint=fingerprint)
    """
    _write_module(tmp_path, "service/workers.py", source)
    assert run_lint(paths=[tmp_path], rules=["SL009"]).clean


def test_sl009_exempts_the_registry_module(tmp_path):
    # events.py forwards every record to the tracer with a dynamic
    # name by design — it *is* the validation layer.
    source = """
    class EventLog:
        def emit(self, name, **fields):
            self._tracer.emit(name, **fields)
    """
    _write_module(tmp_path, "service/events.py", source)
    assert run_lint(paths=[tmp_path], rules=["SL009"]).clean


def test_sl009_out_of_scope_passes(tmp_path):
    _write_module(tmp_path, "coherence/ctrl.py", """
    def snapshot(tracer):
        tracer.emit("made.up.event", detail=1)
    """)
    assert run_lint(paths=[tmp_path], rules=["SL009"]).clean


def test_sl009_service_source_tree_is_clean():
    """The real service package only emits declared events."""
    import repro.service.api as api_mod
    from pathlib import Path

    package_dir = Path(api_mod.__file__).parent.parent
    result = run_lint(paths=[package_dir], rules=["SL009"])
    assert result.clean, [f.message for f in result.findings]


def test_syntax_error_reported_as_sl000(tmp_path):
    (tmp_path / "broken.py").write_text("def oops(:\n")
    result = run_lint(paths=[tmp_path])
    assert [f.rule for f in result.findings] == ["SL000"]


def test_runner_uses_monotonic_clock():
    """Regression (simlint SL001): MatrixRunner timed cells with
    time.time(); wall-time attribution must use perf_counter so the
    summary never depends on (or perturbs with) the wall clock."""
    import repro.experiments.runner as runner_mod

    result = run_lint(paths=[runner_mod.__file__], rules=["SL001"])
    assert result.clean, [f.to_json() for f in result.findings]


def test_real_tree_is_clean(shipped_tree_lint):
    """The shipped sources must lint clean."""
    result = shipped_tree_lint
    assert result.clean, [f.to_json() for f in result.findings]
