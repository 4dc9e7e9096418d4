"""Core/program lifecycle edge cases."""

import dataclasses

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload


def run_single(config, fn, seed=0):
    cfg = dataclasses.replace(config, n_procs=1)
    sys_ = System(cfg, ScriptWorkload(fn), seed=seed)
    res = sys_.run(max_cycles=5_000_000, max_events=2_000_000)
    return res, sys_


def test_minimal_program(tiny_config):
    def prog(tid, config, rng):
        b = BlockBuilder()
        b.end()
        yield b.take()

    res, sys_ = run_single(tiny_config, prog)
    assert res.committed == 1
    assert sys_.cores[0].finished


def test_control_op_as_last_real_op(tiny_config):
    seen = []

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.store(0x100, 5)
        b.load_ctl(0x100)
        v = yield b.take()
        seen.append(v)
        b.end()
        yield b.take()

    run_single(tiny_config, prog)
    assert seen == [5]


def test_generator_return_without_end_op(tiny_config):
    """A program that simply returns (no END op) still terminates."""

    def prog(tid, config, rng):
        b = BlockBuilder()
        for _ in range(5):
            b.alu()
        yield b.take()

    res, sys_ = run_single(tiny_config, prog)
    assert sys_.cores[0].finished
    assert res.committed == 5


def test_many_tiny_blocks(tiny_config):
    def prog(tid, config, rng):
        b = BlockBuilder()
        for i in range(50):
            b.alu()
            yield b.take()
        b.end()
        yield b.take()

    res, _ = run_single(tiny_config, prog)
    assert res.committed == 51


def test_isync_at_program_start(tiny_config):
    def prog(tid, config, rng):
        b = BlockBuilder()
        b.isync()
        b.alu()
        b.end()
        yield b.take()

    res, sys_ = run_single(tiny_config, prog)
    assert sys_.cores[0].finished


def test_back_to_back_control_ops(tiny_config):
    seen = []

    def prog(tid, config, rng):
        b = BlockBuilder()
        for i in range(4):
            b.store(0x200 + i * 8, i * 10)
            yield b.take()
            b.load_ctl(0x200 + i * 8)
            v = yield b.take()
            seen.append(v)
        b.end()
        yield b.take()

    run_single(tiny_config, prog)
    assert seen == [0, 10, 20, 30]


def test_store_then_larx_same_address_goes_to_memory(tiny_config):
    """larx never forwards from the store buffer (it must establish a
    reservation at the coherence point)."""
    seen = []

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.store(0x300, 9)
        b.larx(0x300)
        v = yield b.take()
        seen.append(v)
        b.stcx(0x300, 10)
        ok = yield b.take()
        seen.append(ok)
        b.end()
        yield b.take()

    res, sys_ = run_single(tiny_config, prog)
    assert seen[0] == 9  # drained before the larx read it
    assert seen[1] == 1  # reservation held (no remote interference)
