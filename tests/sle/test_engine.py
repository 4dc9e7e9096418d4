"""SLE engine end-to-end behavior through the full system (§4)."""

import dataclasses

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload

LOCK = 0x2000
DATA = 0x2100
SIDE = 0x2200


def sle_config(base, **sle_kw):
    return base.with_sle(enabled=True, **sle_kw)


def acquire(b, value=1, pc=0x500):
    """Emit one acquire iteration; caller drives the retry loop."""
    b.larx(LOCK, pc=pc)


def locked_section(tid, n_stores=2, pc=0x500, data=DATA, release_value=0,
                   spin_forever=True, meta=None):
    """A thread that acquires LOCK, stores into data, releases."""

    def prog(_tid, config, rng):
        b = BlockBuilder()
        while True:
            b.larx(LOCK, pc=pc)
            v = yield b.take()
            if v != 0:
                b.alu(latency=4)
                continue
            b.stcx(LOCK, tid + 1, pc=pc, meta=meta or {"sle_fallback": ("cas",)})
            ok = yield b.take()
            if ok:
                break
        for i in range(n_stores):
            b.store(data + i * 8, 100 + tid * 10 + i)
        b.store(LOCK, release_value)  # release (reverting store)
        b.end()
        yield b.take()

    return prog


def run(config, *progs, seed=0):
    sys_ = System(config, ScriptWorkload(*progs), seed=seed)
    res = sys_.run(max_cycles=10_000_000, max_events=5_000_000)
    return res, sys_


class TestSuccessfulElision:
    def test_single_thread_elides_lock(self, tiny_config):
        cfg = dataclasses.replace(sle_config(tiny_config), n_procs=1)
        res, sys_ = run(cfg, locked_section(0))
        assert sys_.stats["sle0.attempts"] == 1
        assert sys_.stats["sle0.successes"] == 1
        # The lock was never written: no Upgrade/ReadX for its line
        # beyond the larx read, and its memory value stays free.
        assert sys_.memory.read_line(LOCK)[0] == 0
        line = sys_.controllers[0].lookup(LOCK)
        assert line.data[0] == 0

    def test_elided_region_stores_apply_atomically(self, tiny_config):
        cfg = dataclasses.replace(sle_config(tiny_config), n_procs=1)
        res, sys_ = run(cfg, locked_section(0, n_stores=3))
        line = sys_.controllers[0].lookup(DATA)
        assert line.data[0] == 100 and line.data[1] == 101 and line.data[2] == 102

    def test_concurrent_nonconflicting_elision(self, tiny4_config):
        """Raytrace's win: disjoint critical sections run concurrently."""
        cfg = sle_config(tiny4_config)
        progs = [
            locked_section(t, n_stores=2, data=DATA + t * 0x100) for t in range(4)
        ]
        res, sys_ = run(cfg, *progs)
        successes = sum(sys_.stats[f"sle{i}.successes"] for i in range(4))
        assert successes == 4  # every thread elided
        assert sys_.memory.read_line(LOCK)[0] == 0
        for t in range(4):
            line = sys_.controllers[t].lookup(DATA + t * 0x100)
            assert line.data[0] == 100 + t * 10

    def test_elision_removes_lock_traffic(self, tiny_config):
        cfg = sle_config(tiny_config)
        base_cfg = tiny_config
        progs = [locked_section(0, data=DATA), locked_section(1, data=SIDE)]
        _, with_sle = run(cfg, *progs)
        _, without = run(base_cfg, *progs)
        lock_writes = lambda s: s.stats["bus.txn.upgrade"] + s.stats["bus.txn.readx"]
        assert lock_writes(with_sle) < lock_writes(without)


class TestAborts:
    def test_conflicting_sections_stay_correct(self, tiny_config):
        """Two threads write the SAME data under the lock: whatever mix
        of elision/abort happens, both updates must land."""
        cfg = sle_config(tiny_config)
        done = []

        def writer(tid):
            def prog(_tid, config, rng):
                b = BlockBuilder()
                while True:
                    b.larx(LOCK, pc=0x500)
                    v = yield b.take()
                    if v != 0:
                        b.alu(latency=4)
                        continue
                    b.stcx(LOCK, tid + 1, pc=0x500, meta={"sle_fallback": ("cas",)})
                    ok = yield b.take()
                    if ok:
                        break
                b.store(DATA + tid * 8, tid + 1)  # own word of a SHARED line
                b.store(LOCK, 0)
                b.end()
                yield b.take()

            return prog

        res, sys_ = run(cfg, writer(0), writer(1))
        # Both stores landed regardless of elision outcome.
        owner_data = None
        for ctrl in sys_.controllers:
            line = ctrl.lookup(DATA)
            if line is not None and line.state.dirty:
                owner_data = line.data
        data = owner_data or sys_.memory.read_line(DATA)
        assert data[0] == 1 and data[1] == 2

    def test_no_release_aborts_and_falls_back(self, tiny_config):
        """An atomic-increment idiom: no reverting store ever arrives."""
        cfg = dataclasses.replace(sle_config(tiny_config), n_procs=1)

        def prog(_tid, config, rng):
            b = BlockBuilder()
            b.larx(SIDE, pc=0x600)
            v = yield b.take()
            b.stcx(SIDE, v + 1, pc=0x600, meta={"sle_fallback": ("add", 1)})
            ok = yield b.take()
            assert ok
            # A long tail with no release: the region overflows.
            for _ in range(200):
                b.alu()
            b.end()
            yield b.take()

        res, sys_ = run(cfg, prog)
        assert sys_.stats["sle0.failure.no_release"] == 1
        assert sys_.stats["sle0.fallback_acquisitions"] == 1
        # The fallback applied the increment exactly once.
        line = sys_.controllers[0].lookup(SIDE)
        assert line.data[0] == 1

    def test_unsafe_isync_aborts(self, tiny_config):
        cfg = dataclasses.replace(sle_config(tiny_config), n_procs=1)

        def prog(_tid, config, rng):
            b = BlockBuilder()
            b.larx(LOCK, pc=0x700)
            v = yield b.take()
            b.stcx(LOCK, 1, pc=0x700, meta={"sle_fallback": ("cas",)})
            ok = yield b.take()
            assert ok
            b.isync(unsafe_ctx=True)
            b.store(DATA, 5)
            b.store(LOCK, 0)
            b.end()
            yield b.take()

        res, sys_ = run(cfg, prog)
        assert sys_.stats["sle0.failure.serialize"] == 1
        # Fallback really acquired and the program really released.
        line = sys_.controllers[0].lookup(LOCK)
        assert line.data[0] == 0
        assert sys_.controllers[0].lookup(DATA).data[0] == 5

    def test_safe_isync_is_elided_through(self, tiny_config):
        cfg = dataclasses.replace(sle_config(tiny_config), n_procs=1)

        def prog(_tid, config, rng):
            b = BlockBuilder()
            b.larx(LOCK, pc=0x700)
            v = yield b.take()
            b.stcx(LOCK, 1, pc=0x700, meta={"sle_fallback": ("cas",)})
            ok = yield b.take()
            b.isync(unsafe_ctx=False)
            b.store(DATA, 5)
            b.store(LOCK, 0)
            b.end()
            yield b.take()

        res, sys_ = run(cfg, prog)
        assert sys_.stats["sle0.successes"] == 1

    def test_naive_isync_handling_fails_kernel_sections(self, tiny_config):
        cfg = dataclasses.replace(
            sle_config(tiny_config, isync_safety_check=False), n_procs=1
        )

        def prog(_tid, config, rng):
            b = BlockBuilder()
            b.larx(LOCK, pc=0x700)
            v = yield b.take()
            b.stcx(LOCK, 1, pc=0x700, meta={"sle_fallback": ("cas",)})
            ok = yield b.take()
            b.isync(unsafe_ctx=False)  # safe, but the check is off
            b.store(DATA, 5)
            b.store(LOCK, 0)
            b.end()
            yield b.take()

        res, sys_ = run(cfg, prog)
        assert sys_.stats["sle0.failure.serialize"] == 1

    def test_nested_control_op_aborts(self, tiny_config):
        cfg = dataclasses.replace(sle_config(tiny_config), n_procs=1)

        def prog(_tid, config, rng):
            b = BlockBuilder()
            b.larx(LOCK, pc=0x800)
            v = yield b.take()
            b.stcx(LOCK, 1, pc=0x800, meta={"sle_fallback": ("cas",)})
            ok = yield b.take()
            b.load_ctl(DATA)  # control op inside the region
            inner = yield b.take()
            b.store(LOCK, 0)
            b.end()
            yield b.take()

        res, sys_ = run(cfg, prog)
        assert sys_.stats["sle0.failure.nested"] == 1
        assert sys_.controllers[0].lookup(LOCK).data[0] == 0


class TestConfidenceIntegration:
    def test_repeated_no_release_stops_attempts(self, tiny_config):
        cfg = dataclasses.replace(sle_config(tiny_config), n_procs=1)

        def prog(_tid, config, rng):
            b = BlockBuilder()
            for i in range(4):
                b.larx(SIDE, pc=0x900)
                v = yield b.take()
                b.stcx(SIDE, v + 1, pc=0x900, meta={"sle_fallback": ("add", 1)})
                ok = yield b.take()
                for _ in range(120):
                    b.alu()
            b.end()
            yield b.take()

        res, sys_ = run(cfg, prog)
        # First candidate attempts, fails hard (no_release: -4), and
        # subsequent candidates at the same PC are filtered.
        assert sys_.stats["sle0.attempts"] == 1
        assert sys_.stats["sle0.filtered_by_confidence"] == 3
        assert sys_.controllers[0].lookup(SIDE).data[0] == 4  # all four incs landed
