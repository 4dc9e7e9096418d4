"""Checkpoint-mode SLE (§4.2.1, Rajwar's variant)."""

import dataclasses

import pytest

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload

LOCK = 0x3000
DATA = 0x3100


def run_single(config, prog, checkpoint=True, seed=0, **sle_kw):
    cfg = dataclasses.replace(
        config.with_sle(enabled=True, checkpoint_mode=checkpoint, **sle_kw),
        n_procs=1,
    )
    sys_ = System(cfg, ScriptWorkload(prog), seed=seed)
    res = sys_.run(max_cycles=20_000_000, max_events=8_000_000)
    return res, sys_


def long_region(body_ops, n_stores=6, release=True):
    """A region with ``n_stores`` speculative stores and ``body_ops``
    ALU ops: total length scales past any ROB while the store count
    stays within (or beyond, if asked) the store buffer."""

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.larx(LOCK, pc=0x900)
        v = yield b.take()
        b.stcx(LOCK, 1, pc=0x900, meta={"sle_fallback": ("cas",)})
        ok = yield b.take()
        assert ok
        for s in range(n_stores):
            b.store(DATA + (s % 8) * 8, s + 1)
        for i in range(body_ops):
            b.alu(latency=1)
            if (i + 1) % 16 == 0:
                yield b.take()
        if release:
            b.store(LOCK, 0)
        b.end()
        yield b.take()

    return prog


def test_checkpoint_elides_regions_beyond_the_rob(tiny_config):
    """The paper's §5.1.3 point: in-core SLE is window-bounded;
    checkpointing captures much longer silent-pair distances."""
    ops = 120  # far beyond a 32-entry window
    in_core, sys_ic = run_single(tiny_config, long_region(ops), checkpoint=False)
    assert sys_ic.stats["sle0.successes"] == 0

    ckpt, sys_ck = run_single(tiny_config, long_region(ops), checkpoint=True)
    assert sys_ck.stats["sle0.successes"] == 1
    # The lock was never written under the successful elision.
    assert sys_ck.controllers[0].lookup(LOCK).data[0] == 0


def test_checkpoint_bounded_by_store_buffer(tiny_config):
    """Speculative stores are bounded by store-buffer capacity."""
    cfg = tiny_config.with_core(store_buffer=4)
    res, sys_ = run_single(cfg, long_region(40, n_stores=8), checkpoint=True)
    assert sys_.stats["sle0.successes"] == 0
    assert sys_.stats["sle0.failure.no_release"] == 1
    # All eight stores still landed (fallback replay), exactly once.
    line = sys_.controllers[0].lookup(DATA)
    assert line.data == [1, 2, 3, 4, 5, 6, 7, 8]


def test_checkpoint_success_applies_stores_once(tiny_config):
    res, sys_ = run_single(tiny_config, long_region(60), checkpoint=True)
    assert sys_.stats["sle0.successes"] == 1
    line = sys_.controllers[0].lookup(DATA)
    assert line.data[:6] == [1, 2, 3, 4, 5, 6]


def test_checkpoint_conflict_abort_with_retired_ops(tiny_config):
    """A remote conflict after region ops retired: the fallback must
    re-apply the retired stores after really acquiring the lock."""
    cfg = dataclasses.replace(
        tiny_config.with_sle(enabled=True, checkpoint_mode=True), n_procs=2
    )
    FLAG = 0x3800

    def victim(tid, config, rng):
        b = BlockBuilder()
        b.larx(LOCK, pc=0x910)
        v = yield b.take()
        b.stcx(LOCK, 1, pc=0x910, meta={"sle_fallback": ("cas",)})
        ok = yield b.take()
        # Long region: the stores retire long before the conflict.
        for s in range(8):
            b.store(DATA + s * 8, s + 33)
        for i in range(120):
            b.alu(latency=2)
            if (i + 1) % 16 == 0:
                yield b.take()
        b.store(LOCK, 0)
        b.sync()
        b.store(FLAG, 1)
        b.end()
        yield b.take()

    def attacker(tid, config, rng):
        b = BlockBuilder()
        for _ in range(30):
            b.alu(latency=4)
        b.store(DATA, 999)  # write into the victim's write set
        b.end()
        yield b.take()

    sys_ = System(cfg, ScriptWorkload(victim, attacker), seed=5)
    sys_.run(max_cycles=20_000_000, max_events=8_000_000)
    assert sys_.cores[0].finished and sys_.cores[1].finished
    # Whatever interleaving: the victim's final region values all
    # landed (999 may or may not survive depending on order, but the
    # victim's last writes to words 1..7 must).
    line = None
    for ctrl in sys_.controllers:
        cand = ctrl.lookup(DATA)
        if cand is not None and cand.state.dirty:
            line = cand
    line = line or sys_.controllers[0].lookup(DATA)
    assert line.data[1:] == [34, 35, 36, 37, 38, 39, 40]
    lock_line = None
    for ctrl in sys_.controllers:
        cand = ctrl.lookup(LOCK)
        if cand is not None and cand.has_data:
            lock_line = cand
            if cand.state.dirty:
                break
    assert lock_line.data[0] == 0


def test_checkpoint_restore_penalty_charged(tiny_config):
    """Aborts with retired ops cost at least the restore penalty."""
    cfg4 = tiny_config.with_core(store_buffer=4)
    fast, _ = run_single(
        cfg4, long_region(40, n_stores=8), checkpoint=True,
        checkpoint_restore_penalty=0,
    )
    slow, _ = run_single(
        cfg4, long_region(40, n_stores=8), checkpoint=True,
        checkpoint_restore_penalty=2000,
    )
    assert slow.cycles >= fast.cycles + 1500


@pytest.mark.parametrize("cs_alu_ops", [0, 4])
def test_checkpoint_release_without_fence_is_held(tiny_config, cs_alu_ops):
    """Two threads elide one lock whose release store follows no lwsync.

    The release must wait for the region to commit, as in in-core
    mode.  Retired early, a conflict abort dropped it, and the
    thread's next acquire committed while the region was still
    speculative: the fallback CAS never succeeded, so core 1 spun
    until `max_cycles` with the lock word 1 in both caches.
    """
    cfg = tiny_config.with_sle(enabled=True, checkpoint_mode=True)

    def prog(tid, config, rng):
        b = BlockBuilder()
        while True:
            b.larx(LOCK, pc=0x900)
            if (yield b.take()) != 0:
                continue
            b.stcx(LOCK, tid + 1, pc=0x900, meta={"sle_fallback": ("cas",)})
            if (yield b.take()):
                break
        for _ in range(cs_alu_ops):
            b.alu(latency=1)
        b.store(DATA, tid + 1)
        b.store(LOCK, 0)
        b.end()
        yield b.take()

    sys_ = System(cfg, ScriptWorkload(prog, prog), seed=0)
    sys_.run(max_cycles=200_000, max_events=400_000)
    assert all(core.finished for core in sys_.cores)
    assert sys_.stats["sle0.failure.conflict"] + sys_.stats["sle1.failure.conflict"] > 0
    for ctrl in sys_.controllers:
        line = ctrl.lookup(LOCK)
        assert line is None or not line.has_data or line.data[0] == 0
