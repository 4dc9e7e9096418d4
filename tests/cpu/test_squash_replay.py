"""Core squash/replay mechanics in isolation."""

import dataclasses

import pytest

from repro.cpu.core import Phase
from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload

# Squashes must drop their stores from the core's forwarding index.
pytestmark = pytest.mark.usefixtures("checked_store_index")

LINE = 0x5000
FLAG = 0x5800


def mispredict_setup(tail_builder):
    """P0 gets a guaranteed LVP mispredict, then runs ``tail_builder``."""

    def p0(tid, config, rng):
        b = BlockBuilder()
        b.load_ctl(LINE)  # warm (word 0)
        v = yield b.take()
        while True:
            b.load_ctl(FLAG)
            f = yield b.take()
            if f:
                break
            for _ in range(6):
                b.alu(latency=2)
        # word 0 changed remotely: residue mispredicts.
        dst = b.fresh()
        b.load(LINE, dst)
        yield from tail_builder(b, dst)
        b.end()
        yield b.take()

    def p1(tid, config, rng):
        b = BlockBuilder()
        b.store(LINE, 77)  # change word 0 (true sharing)
        b.sync()
        b.store(FLAG, 1)
        b.end()
        yield b.take()

    return p0, p1


def run_pair(config, p0, p1, seed=0):
    cfg = config.with_lvp(enabled=True)
    sys_ = System(cfg, ScriptWorkload(p0, p1), seed=seed)
    res = sys_.run(max_cycles=5_000_000, max_events=2_000_000)
    return res, sys_


def test_younger_ops_replay_after_squash(tiny_config):
    def tail(b, dst):
        for _ in range(10):
            b.alu(latency=1)
        b.store(LINE + 16, 5)
        yield b.take()

    p0, p1 = mispredict_setup(tail)
    res, sys_ = run_pair(tiny_config, p0, p1)
    assert res.stats["core0.squash.lvp"] == 1
    assert res.stats["core0.squash.ops"] >= 1
    # The replayed store still landed exactly once.
    line = sys_.controllers[0].lookup(LINE)
    assert line.data[2] == 5
    assert line.data[0] == 77  # and the mispredicted load's line healed


def test_replayed_dependents_recompute(tiny_config):
    """ALU consumers of the squashed load must re-resolve their deps."""

    def tail(b, dst):
        cur = dst
        for _ in range(5):
            nxt = b.fresh()
            b.alu(nxt, (cur,), latency=2)
            cur = nxt
        yield b.take()

    p0, p1 = mispredict_setup(tail)
    res, sys_ = run_pair(tiny_config, p0, p1)
    assert sys_.cores[0].finished
    assert res.stats["core0.squash.lvp"] == 1


def test_committed_ops_never_squashed(tiny_config):
    """Ops retired before the speculative load are untouched."""

    def tail(b, dst):
        b.store(LINE + 24, 9)
        yield b.take()

    p0, p1 = mispredict_setup(tail)
    res, sys_ = run_pair(tiny_config, p0, p1)
    committed = res.stats["core0.commit.store"]
    # Stores: P0 stores LINE+24 exactly once despite the squash
    # (commit is in-order and behind the unverified load).
    line = sys_.controllers[0].lookup(LINE)
    assert line.data[3] == 9


def test_control_after_spec_waits_for_verification(tiny_config):
    """A control op younger than a speculative load cannot hand its
    value to the program until the speculation resolves."""
    seen = []

    def tail(b, dst):
        b.load_ctl(LINE + 8)  # control load after the spec load
        v = yield b.take()
        seen.append(v)
        b.alu()
        yield b.take()

    p0, p1 = mispredict_setup(tail)
    res, sys_ = run_pair(tiny_config, p0, p1)
    assert seen == [0]  # architecturally correct (word 1 never written)
    assert sys_.cores[0].finished


def test_multiple_sequential_squashes(tiny_config):
    """Back-to-back mispredicts on different lines all recover."""
    OTHER = 0x5100

    def p0(tid, config, rng):
        b = BlockBuilder()
        b.load_ctl(LINE)
        v = yield b.take()
        b.load_ctl(OTHER)
        v = yield b.take()
        while True:
            b.load_ctl(FLAG)
            f = yield b.take()
            if f:
                break
            for _ in range(6):
                b.alu(latency=2)
        b.load(LINE, b.fresh())  # mispredict 1
        b.alu(latency=30)
        yield b.take()
        b.load(OTHER, b.fresh())  # mispredict 2
        b.alu()
        yield b.take()
        b.end()
        yield b.take()

    def p1(tid, config, rng):
        b = BlockBuilder()
        b.store(LINE, 1)
        b.store(OTHER, 2)
        b.sync()
        b.store(FLAG, 1)
        b.end()
        yield b.take()

    res, sys_ = run_pair(tiny_config, p0, p1)
    assert sys_.cores[0].finished
    assert res.stats["core0.squash.lvp"] >= 1
