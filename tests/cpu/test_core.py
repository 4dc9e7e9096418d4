"""The window-based core timing model, driven by scripted programs."""

import dataclasses

from repro.cpu.core import SlotCursor
from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload


def single(config):
    return dataclasses.replace(config, n_procs=1)


def run_script(config, fn, seed=0, **kw):
    sys_ = System(single(config), ScriptWorkload(fn), seed=seed)
    result = sys_.run(max_cycles=5_000_000, max_events=2_000_000, **kw)
    return result, sys_


class TestSlotCursor:
    def test_width_limits_per_cycle(self):
        c = SlotCursor(2)
        assert [c.next_at(0) for _ in range(5)] == [0, 0, 1, 1, 2]

    def test_advances_to_earliest(self):
        c = SlotCursor(2)
        c.next_at(0)
        assert c.next_at(10) == 10
        assert c.next_at(10) == 10
        assert c.next_at(10) == 11

    def test_monotonic_even_for_stale_earliest(self):
        c = SlotCursor(1)
        assert c.next_at(5) == 5
        assert c.next_at(0) == 6


class TestBasicExecution:
    def test_simple_program_completes(self, tiny_config):
        def prog(tid, config, rng):
            b = BlockBuilder()
            for i in range(10):
                b.alu()
            b.end()
            yield b.take()

        res, _ = run_script(tiny_config, prog)
        assert res.committed == 11
        assert res.cycles > 0

    def test_load_returns_memory_value(self, tiny_config):
        seen = []

        def prog(tid, config, rng):
            b = BlockBuilder()
            b.store(0x100, 42)
            yield b.take()
            b.load_ctl(0x100)
            value = yield b.take()
            seen.append(value)
            b.end()
            yield b.take()

        run_script(tiny_config, prog)
        assert seen == [42]

    def test_store_to_load_forwarding_within_window(self, tiny_config):
        seen = []

        def prog(tid, config, rng):
            b = BlockBuilder()
            b.store(0x200, 7)
            b.load_ctl(0x200)  # same block: store still in the window
            value = yield b.take()
            seen.append(value)
            b.end()
            yield b.take()

        res, sys_ = run_script(tiny_config, prog)
        assert seen == [7]
        assert sys_.stats["core0.loads.forwarded"] >= 1

    def test_dependent_alu_chain_serializes(self, tiny_config):
        def chain(n):
            def prog(tid, config, rng):
                b = BlockBuilder()
                prev = b.fresh()
                b.alu(prev, latency=1)
                for _ in range(n):
                    cur = b.fresh()
                    b.alu(cur, (prev,), latency=1)
                    prev = cur
                b.end()
                yield b.take()

            return prog

        short, _ = run_script(tiny_config, chain(10))
        long, _ = run_script(tiny_config, chain(60))
        # A dependence chain runs ~1 op/cycle regardless of width.
        assert long.cycles - short.cycles >= 45

    def test_independent_alus_exploit_width(self, tiny_config):
        def parallel(n):
            def prog(tid, config, rng):
                b = BlockBuilder()
                for _ in range(n):
                    b.alu(latency=1)
                b.end()
                yield b.take()

            return prog

        r16, _ = run_script(tiny_config, parallel(16))
        r32, _ = run_script(tiny_config, parallel(32))
        # Width 2: ~n/2 cycles; doubling ops adds ~8 cycles, not ~16.
        assert (r32.cycles - r16.cycles) <= 12

    def test_ipc_recorded(self, tiny_config):
        def prog(tid, config, rng):
            b = BlockBuilder()
            for _ in range(50):
                b.alu()
            b.end()
            yield b.take()

        res, _ = run_script(tiny_config, prog)
        assert res.ipc > 0.5


class TestMemoryOverlap:
    def test_independent_misses_overlap(self, tiny_config):
        """MLP: two misses to different lines cost ~one miss latency."""

        def loads(n):
            def prog(tid, config, rng):
                b = BlockBuilder()
                for i in range(n):
                    b.load(0x1000 + i * 64, b.fresh())
                b.end()
                yield b.take()

            return prog

        one, _ = run_script(tiny_config, loads(1))
        four, _ = run_script(tiny_config, loads(4))
        # Four overlapped misses must cost far less than 4x one miss.
        assert four.cycles < one.cycles * 2.5

    def test_mshr_limit_bounds_overlap(self, tiny_config):
        cfg = tiny_config.with_core(mshrs=1)

        def prog(tid, config, rng):
            b = BlockBuilder()
            for i in range(4):
                b.load(0x1000 + i * 64, b.fresh())
            b.end()
            yield b.take()

        limited, _ = run_script(cfg, prog)
        free, _ = run_script(tiny_config.with_core(mshrs=8), prog)
        assert limited.cycles > free.cycles * 1.8


class TestSerialization:
    def test_isync_drains_and_penalizes(self, tiny_config):
        def with_isync(n_isyncs):
            def prog(tid, config, rng):
                b = BlockBuilder()
                for _ in range(n_isyncs):
                    for _ in range(4):
                        b.alu()
                    b.isync()
                b.end()
                yield b.take()

            return prog

        none, _ = run_script(tiny_config, with_isync(0))
        some, _ = run_script(tiny_config, with_isync(6))
        assert some.cycles > none.cycles + 5 * tiny_config.core.fetch_redirect_penalty

    def test_sync_waits_for_store_buffer(self, tiny_config):
        seen = []

        def prog(tid, config, rng):
            b = BlockBuilder()
            b.store(0x300, 9)
            b.sync()
            b.load_ctl(0x300)
            value = yield b.take()
            seen.append(value)
            b.end()
            yield b.take()

        run_script(tiny_config, prog)
        assert seen == [9]

    def test_store_drains_serialize_and_complete(self, tiny_config):
        cfg = tiny_config.with_core(store_buffer=1)

        def prog(tid, config, rng):
            b = BlockBuilder()
            for i in range(8):
                b.store(0x1000 + i * 64, i)  # each drain misses
            b.end()
            yield b.take()

        res, sys_ = run_script(cfg, prog)
        assert sys_.stats["core0.sb.drained"] == 8
        # Serial drains: each store miss pays at least the data latency.
        assert res.cycles >= 8 * cfg.bus.data_latency
        # And all values landed.
        node = sys_.nodes[0]
        for i in range(8):
            line = sys_.controllers[0].lookup(0x1000 + i * 64)
            assert line is not None and line.data[0] == i


class TestLarxStcx:
    def test_acquire_release_round_trip(self, tiny_config):
        outcomes = []

        def prog(tid, config, rng):
            b = BlockBuilder()
            b.larx(0x400)
            v = yield b.take()
            outcomes.append(("larx", v))
            b.stcx(0x400, 1)
            ok = yield b.take()
            outcomes.append(("stcx", ok))
            b.store(0x400, 0)
            b.end()
            yield b.take()

        res, _ = run_script(tiny_config, prog)
        assert outcomes == [("larx", 0), ("stcx", 1)]

    def test_stcx_failure_path_delivers_zero(self, tiny_config):
        outcomes = []

        def prog(tid, config, rng):
            b = BlockBuilder()
            b.stcx(0x400, 1)  # no larx: no reservation
            ok = yield b.take()
            outcomes.append(ok)
            b.end()
            yield b.take()

        run_script(tiny_config, prog)
        assert outcomes == [0]


class TestMultiCore:
    def test_producer_consumer_value_flows(self, tiny_config):
        seen = []

        def producer(tid, config, rng):
            b = BlockBuilder()
            b.store(0x500, 77)
            b.store(0x540, 1)  # flag
            b.end()
            yield b.take()

        def consumer(tid, config, rng):
            b = BlockBuilder()
            while True:
                b.load_ctl(0x540)
                flag = yield b.take()
                if flag:
                    break
                for _ in range(4):
                    b.alu(latency=2)
            b.load_ctl(0x500)
            value = yield b.take()
            seen.append(value)
            b.end()
            yield b.take()

        sys_ = System(tiny_config, ScriptWorkload(producer, consumer), seed=0)
        sys_.run(max_cycles=2_000_000)
        assert seen == [77]

    def test_spinlock_mutual_exclusion(self, tiny4_config):
        """Four threads increment a counter under a larx/stcx lock."""
        LOCK, COUNTER, N = 0x600, 0x680, 10

        def worker(tid, config, rng):
            b = BlockBuilder()
            for _ in range(N):
                while True:
                    b.larx(LOCK)
                    v = yield b.take()
                    if v != 0:
                        b.alu(latency=4)
                        continue
                    b.stcx(LOCK, tid + 1)
                    ok = yield b.take()
                    if ok:
                        break
                b.load_ctl(COUNTER)
                c = yield b.take()
                b.store(COUNTER, c + 1)
                b.sync()
                b.store(LOCK, 0)
                yield b.take()
            b.end()
            yield b.take()

        sys_ = System(tiny4_config, ScriptWorkload(*([worker] * 4)), seed=3)
        sys_.run(max_cycles=20_000_000, max_events=5_000_000)
        # Mutual exclusion: every increment must have landed.
        final = sys_.memory.read_line(0x680)[0]
        dirty = None
        for ctrl in sys_.controllers:
            line = ctrl.lookup(0x680)
            if line is not None and line.state.dirty:
                dirty = line.data[0]
        assert (dirty if dirty is not None else final) == 4 * N
