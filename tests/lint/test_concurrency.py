"""Fixture pairs for the whole-program concurrency rules (SL201-203)."""

from __future__ import annotations

import textwrap

from repro.lint import run_lint


def _write(tmp_path, rel: str, source: str):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('"""Fixture."""\n' + textwrap.dedent(source))


def _lint(tmp_path, rule: str):
    return run_lint(paths=[tmp_path], rules=[rule])


# ---------------------------------------------------------------------------
# SL201 — blocking call reachable from a service coroutine
# ---------------------------------------------------------------------------


def test_sl201_flags_direct_blocking_call(tmp_path):
    _write(tmp_path, "service/api.py", """
        import time


        async def handler():
            time.sleep(1)
    """)
    result = _lint(tmp_path, "SL201")
    assert [f.rule for f in result.findings] == ["SL201"]
    assert "async def handler" in result.findings[0].message
    assert result.findings[0].snippet == "time.sleep(1)"


def test_sl201_flags_transitively_reachable_blocking_call(tmp_path):
    """The point of the call graph: the blocking call is two sync
    hops away from the coroutine, through a typed attribute."""
    _write(tmp_path, "service/mod.py", """
        class Store:
            def flush(self):
                self._save()

            def _save(self):
                from pathlib import Path
                Path("x").write_text("data")

        class Shard:
            def __init__(self, store: Store):
                self.store = store

            async def stop(self):
                self.store.flush()
    """)
    result = _lint(tmp_path, "SL201")
    assert result.findings, "missed the transitive blocking call"
    assert all(f.rule == "SL201" for f in result.findings)
    # The finding names the entry coroutine and sits on the write_text.
    assert any("Shard.stop" in f.message for f in result.findings)


def test_sl201_passes_offloaded_call(tmp_path):
    """run_in_executor(None, fn) passes the callable instead of
    calling it — the graph sees no edge, the rule stays quiet."""
    _write(tmp_path, "service/mod.py", """
        import asyncio

        class Store:
            def flush(self):
                from pathlib import Path
                Path("x").write_text("data")

        class Shard:
            def __init__(self, store: Store):
                self.store = store

            async def stop(self):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, self.store.flush)
    """)
    assert _lint(tmp_path, "SL201").clean


def test_sl201_ignores_blocking_calls_outside_service_scope(tmp_path):
    """Only service/ coroutines serve concurrent requests; a bench
    script may block all it likes."""
    _write(tmp_path, "bench/run.py", """
        import time


        async def sweep():
            time.sleep(1)
    """)
    assert _lint(tmp_path, "SL201").clean


# ---------------------------------------------------------------------------
# SL202 — guarded attribute accessed without its lock
# ---------------------------------------------------------------------------


def test_sl202_flags_lock_free_read_of_guarded_attr(tmp_path):
    _write(tmp_path, "service/mod.py", """
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.RLock()
                self.jobs = {}

            def submit(self, job):
                with self._lock:
                    self.jobs[job] = "queued"

            def peek(self, job):
                return self.jobs.get(job)
    """)
    result = _lint(tmp_path, "SL202")
    assert [f.rule for f in result.findings] == ["SL202"]
    assert "jobs" in result.findings[0].message


def test_sl202_passes_lock_held_access(tmp_path):
    _write(tmp_path, "service/mod.py", """
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.RLock()
                self.jobs = {}

            def submit(self, job):
                with self._lock:
                    self.jobs[job] = "queued"

            def peek(self, job):
                with self._lock:
                    return self.jobs.get(job)
    """)
    assert _lint(tmp_path, "SL202").clean


def test_sl202_guard_comment_escape_hatch(tmp_path):
    """`# sl: guarded-by(<lock>)` asserts a guarantee the analysis
    cannot see (e.g. the only caller is inside a lock region but
    reaches here through a lambda)."""
    _write(tmp_path, "service/mod.py", """
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.RLock()
                self.jobs = {}

            def submit(self, job):
                with self._lock:
                    self.jobs[job] = "queued"

            def peek(self, job):
                return self.jobs.get(job)  # sl: guarded-by(_lock)
    """)
    assert _lint(tmp_path, "SL202").clean


def test_sl202_helper_only_called_under_lock_is_not_flagged(tmp_path):
    """Held-method inference: a private helper whose every call site
    holds the lock may touch guarded state lock-free."""
    _write(tmp_path, "service/mod.py", """
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.RLock()
                self.jobs = {}

            def submit(self, job):
                with self._lock:
                    self.jobs[job] = "queued"
                    self._bump(job)

            def _bump(self, job):
                self.jobs[job] = "bumped"
    """)
    assert _lint(tmp_path, "SL202").clean


def test_sl202_flags_cross_class_lock_free_access(tmp_path):
    """The api.py bug class: another object reading `queue.jobs`
    without the queue's lock."""
    _write(tmp_path, "service/mod.py", """
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.RLock()
                self.jobs = {}

            def submit(self, job):
                with self._lock:
                    self.jobs[job] = "queued"

        class Api:
            def __init__(self, queue: Queue):
                self.queue = queue

            def status(self, job):
                return self.queue.jobs[job]
    """)
    result = _lint(tmp_path, "SL202")
    assert result.findings, "missed the cross-class lock-free read"
    assert all(f.rule == "SL202" for f in result.findings)


# ---------------------------------------------------------------------------
# SL203 — fork-unsafe capture crossing into a process pool
# ---------------------------------------------------------------------------


def test_sl203_flags_bound_method_of_lock_holder(tmp_path):
    """Submitting a bound method pickles the whole instance — locks
    and sockets do not survive the trip."""
    _write(tmp_path, "service/mod.py", """
        import threading
        from concurrent.futures import ProcessPoolExecutor


        class Store:
            def __init__(self):
                self._lock = threading.RLock()

            def flush(self):
                pass


        def run(store: Store):
            pool = ProcessPoolExecutor(2)
            pool.submit(store.flush)
    """)
    result = _lint(tmp_path, "SL203")
    assert [f.rule for f in result.findings] == ["SL203"]


def test_sl203_passes_plain_function_submit(tmp_path):
    _write(tmp_path, "service/mod.py", """
        from concurrent.futures import ProcessPoolExecutor


        def simulate(config):
            return config


        def run(config):
            pool = ProcessPoolExecutor(2)
            pool.submit(simulate, config)
    """)
    assert _lint(tmp_path, "SL203").clean
