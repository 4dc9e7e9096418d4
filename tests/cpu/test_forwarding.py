"""Store-to-load forwarding precedence and granularity."""

import dataclasses

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload


def run_single(config, fn, seed=0):
    cfg = dataclasses.replace(config, n_procs=1)
    sys_ = System(cfg, ScriptWorkload(fn), seed=seed)
    res = sys_.run(max_cycles=5_000_000, max_events=2_000_000)
    return res, sys_


def test_youngest_window_store_wins(tiny_config):
    seen = []

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.store(0x100, 1)
        b.store(0x100, 2)
        b.store(0x100, 3)
        b.load_ctl(0x100)
        v = yield b.take()
        seen.append(v)
        b.end()
        yield b.take()

    run_single(tiny_config, prog)
    assert seen == [3]


def test_forwarding_is_word_granular(tiny_config):
    seen = []

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.store(0x200, 7)  # word 0
        b.load_ctl(0x208)  # word 1: NOT forwarded, reads memory (0)
        v = yield b.take()
        seen.append(v)
        b.load_ctl(0x200)
        v = yield b.take()
        seen.append(v)
        b.end()
        yield b.take()

    run_single(tiny_config, prog)
    assert seen == [0, 7]


def test_forwarded_loads_skip_the_bus(tiny_config):
    def prog(tid, config, rng):
        b = BlockBuilder()
        b.store(0x300, 1)
        for _ in range(6):
            b.load(0x300, b.fresh())
        b.end()
        yield b.take()

    res, sys_ = run_single(tiny_config, prog)
    assert sys_.stats["core0.loads.forwarded"] >= 5
    # Only the store's drain touched the bus for that line.
    assert res.txn("readx") + res.txn("read") <= 2


def test_forwarding_across_blocks(tiny_config):
    seen = []

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.store(0x400, 11)
        yield b.take()
        b.load_ctl(0x400)  # next block; store may still be undrained
        v = yield b.take()
        seen.append(v)
        b.end()
        yield b.take()

    run_single(tiny_config, prog)
    assert seen == [11]


def test_drained_store_forwards_from_cache(tiny_config):
    """After the SB drains, loads hit the dirty cache line instead."""
    seen = []

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.store(0x500, 13)
        b.sync()
        for _ in range(40):  # give the drain time
            b.alu(latency=4)
        yield b.take()
        b.load_ctl(0x500)
        v = yield b.take()
        seen.append(v)
        b.end()
        yield b.take()

    res, sys_ = run_single(tiny_config, prog)
    assert seen == [13]
