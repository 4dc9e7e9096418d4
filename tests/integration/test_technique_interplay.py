"""Cross-technique interplay stress tests."""

import dataclasses

from repro.coherence.states import LineState
from repro.cpu.program import BlockBuilder
from repro.system.system import System
from repro.system.techniques import configure_technique
from tests.harness import ScriptWorkload

LOCK = 0x4000
SHARED = 0x4100
SCRATCH = 0x4200


def test_lvp_squash_inside_sle_region_recovers(tiny_config):
    """An LVP mispredict tearing out part of an elided region must
    leave both mechanisms consistent (engine rebuilds its sets)."""
    cfg = dataclasses.replace(
        configure_technique(tiny_config, "lvp+sle"), n_procs=2
    )
    done = []

    def p0(tid, config, rng):
        b = BlockBuilder()
        # Warm SHARED so a residue exists, and watch the flag.
        b.load_ctl(SHARED)
        v = yield b.take()
        while True:
            b.load_ctl(SCRATCH)
            f = yield b.take()
            if f:
                break
            for _ in range(4):
                b.alu(latency=2)
        # Elidable critical section containing a load that will
        # mispredict (P1 changed SHARED word 0).
        b.larx(LOCK, pc=0xA00)
        v = yield b.take()
        b.stcx(LOCK, 1, pc=0xA00, meta={"sle_fallback": ("cas",)})
        ok = yield b.take()
        dst = b.fresh()
        b.load(SHARED, dst)  # spec from stale residue -> squash
        b.store(SCRATCH + 8, 7)
        b.store(LOCK, 0)
        b.end()
        yield b.take()
        done.append(tid)

    def p1(tid, config, rng):
        b = BlockBuilder()
        b.store(SHARED, 99)
        b.sync()
        b.store(SCRATCH, 1)
        b.end()
        yield b.take()
        done.append(tid)

    sys_ = System(cfg, ScriptWorkload(p0, p1), seed=4)
    res = sys_.run(max_cycles=20_000_000, max_events=8_000_000)
    assert sys_.cores[0].finished and sys_.cores[1].finished
    # The region's store landed exactly once, whatever path was taken.
    line = sys_.controllers[0].lookup(SCRATCH)
    assert line.data[1] == 7
    # The lock ended free.
    lock_line = sys_.controllers[0].lookup(LOCK)
    assert lock_line.data[0] == 0


def test_emesti_validates_lock_while_sle_elides_elsewhere(tiny4_config):
    """E-MESTI and SLE coexist: one lock is elided (never transfers),
    another is really handed around (validates capture its pair)."""
    cfg = configure_technique(tiny4_config, "emesti+sle")
    ELIDED, HANDED = LOCK, LOCK + 0x100

    def elider(tid):
        def prog(_tid, config, rng):
            b = BlockBuilder()
            for r in range(4):
                while True:
                    b.larx(ELIDED, pc=0xB00)
                    v = yield b.take()
                    if v != 0:
                        b.alu(latency=4)
                        continue
                    b.stcx(ELIDED, tid + 1, pc=0xB00,
                           meta={"sle_fallback": ("cas",)})
                    ok = yield b.take()
                    if ok:
                        break
                b.store(SHARED + tid * 0x40, r)
                b.store(ELIDED, 0)
                for _ in range(8):
                    b.alu(latency=2)
            b.end()
            yield b.take()

        return prog

    def hander(tid):
        def prog(_tid, config, rng):
            b = BlockBuilder()
            for r in range(14):
                b.store(HANDED + 8 * (tid % 2), r + 1)
                b.store(HANDED + 8 * (tid % 2), 0)  # silent pair
                for _ in range(12):
                    b.alu(latency=2)
                b.load(HANDED + 8 * ((tid + 1) % 2), b.fresh())
                yield b.take()
            b.end()
            yield b.take()

        return prog

    progs = [elider(0), elider(1), hander(2), hander(3)]
    sys_ = System(cfg, ScriptWorkload(*progs), seed=6)
    res = sys_.run(max_cycles=30_000_000, max_events=10_000_000)
    successes = sum(sys_.stats.get(f"sle{i}.successes") for i in range(4))
    assert successes >= 1
    assert res.txn("validate") >= 1  # E-MESTI active on the handed flags


def test_mesti_protocol_under_lvp_residue(tiny_config):
    """T-state lines feed LVP; validates must still re-install them."""
    cfg = configure_technique(tiny_config, "mesti+lvp")
    from tests.harness import MemHarness

    h = MemHarness(cfg)
    h.store(0, SHARED, 0)
    h.load(1, SHARED)
    h.store(0, SHARED, 1)
    assert h.line_state(1, SHARED) is LineState.T
    # LVP predicts from the T line while the revert is still pending.
    status, value, op = h.load(1, SHARED)
    assert status == "spec" and value == 0
    h.drain()
    assert op.squashed  # real value was 1 — and the read made 1 the
    # new globally visible value, so "reverting" to 0 is NOT temporal
    # silence anymore; P1's fresh copy saves 1 on the next invalidation.
    h.store(0, SHARED, 0)
    h.drain()
    line1 = h.controllers[1].lookup(SHARED)
    assert line1.state is LineState.T and line1.data[0] == 1
    # Reverting to the *visible* value (1) completes a silent pair.
    h.store(0, SHARED, 1)
    h.drain()
    assert h.line_state(1, SHARED) is LineState.S
    assert h.load(1, SHARED)[1] == 1
