"""End-to-end value correctness under every technique combination.

Whatever speculation, validate broadcasting, or elision happens, the
architectural outcome must be exact: lock-protected counters reach
their precise totals, and producer/consumer data arrives intact.
"""

import pytest

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from repro.system.techniques import ALL_TECHNIQUES, configure_technique
from tests.harness import ScriptWorkload

LOCK = 0x6000
COUNTER = 0x6100
INCREMENTS = 8


def locked_counter(tid):
    """Increment a shared counter INCREMENTS times under a spin lock."""

    def prog(_tid, config, rng):
        b = BlockBuilder()
        for _ in range(INCREMENTS):
            while True:
                b.larx(LOCK, pc=0x10)
                v = yield b.take()
                if v != 0:
                    b.alu(latency=4)
                    continue
                b.stcx(LOCK, tid + 1, pc=0x10, meta={"sle_fallback": ("cas",)})
                ok = yield b.take()
                if ok:
                    break
            b.load_ctl(COUNTER)
            c = yield b.take()
            b.store(COUNTER, c + 1)
            b.sync()
            b.store(LOCK, 0)
            yield b.take()
            for _ in range(6):
                b.alu(latency=2)
        b.end()
        yield b.take()

    return prog


def final_word(system, base, widx):
    """Read the architecturally-current value of a word."""
    for ctrl in system.controllers:
        line = ctrl.lookup(base)
        if line is not None and line.state.dirty:
            return line.data[widx]
    return system.memory.read_word(base, widx)


@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
def test_locked_counter_exact_under_technique(technique, tiny4_config):
    cfg = configure_technique(tiny4_config, technique)
    progs = [locked_counter(t) for t in range(4)]
    system = System(cfg, ScriptWorkload(*progs), seed=13)
    system.run(max_cycles=50_000_000, max_events=20_000_000)
    assert final_word(system, COUNTER, 0) == 4 * INCREMENTS
    assert final_word(system, LOCK, 0) == 0  # released


@pytest.mark.parametrize("technique", ["base", "emesti", "lvp", "emesti+lvp+sle"])
def test_atomic_counters_exact(technique, tiny4_config):
    """larx/stcx fetch-and-add from all threads sums exactly."""
    ATOMIC = 0x7000
    N = 10

    def adder(tid):
        def prog(_tid, config, rng):
            b = BlockBuilder()
            for _ in range(N):
                while True:
                    b.larx(ATOMIC, pc=0x20)
                    v = yield b.take()
                    b.stcx(ATOMIC, v + 1, pc=0x20, meta={"sle_fallback": ("add", 1)})
                    ok = yield b.take()
                    if ok:
                        break
                for _ in range(4):
                    b.alu(latency=2)
            b.end()
            yield b.take()

        return prog

    cfg = configure_technique(tiny4_config, technique)
    system = System(cfg, ScriptWorkload(*[adder(t) for t in range(4)]), seed=9)
    system.run(max_cycles=50_000_000, max_events=20_000_000)
    assert final_word(system, ATOMIC, 0) == 4 * N


@pytest.mark.parametrize("technique", ["base", "mesti", "emesti+lvp"])
def test_producer_consumer_handoff(technique, tiny_config):
    """Flag-guarded message passing delivers the payload exactly."""
    FLAG, DATA = 0x8000, 0x8100
    received = []

    def producer(tid, config, rng):
        b = BlockBuilder()
        for i in range(6):
            b.store(DATA + i * 8, 1000 + i)
        b.sync()
        b.store(FLAG, 1)
        b.end()
        yield b.take()

    def consumer(tid, config, rng):
        b = BlockBuilder()
        while True:
            b.load_ctl(FLAG)
            f = yield b.take()
            if f:
                break
            for _ in range(4):
                b.alu(latency=2)
        for i in range(6):
            b.load_ctl(DATA + i * 8)
            v = yield b.take()
            received.append(v)
        b.end()
        yield b.take()

    cfg = configure_technique(tiny_config, technique)
    received.clear()
    System(cfg, ScriptWorkload(producer, consumer), seed=2).run(
        max_cycles=10_000_000
    )
    assert received == [1000 + i for i in range(6)]
