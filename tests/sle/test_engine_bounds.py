"""SLE in-core buffering bounds and end-of-stream handling."""

import dataclasses

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload

LOCK = 0x3000
DATA = 0x3100


def run_single(config, prog, seed=0):
    cfg = dataclasses.replace(config.with_sle(enabled=True), n_procs=1)
    sys_ = System(cfg, ScriptWorkload(prog), seed=seed)
    res = sys_.run(max_cycles=20_000_000, max_events=8_000_000)
    return res, sys_


def locked_region(body_ops, release=True):
    def prog(tid, config, rng):
        b = BlockBuilder()
        b.larx(LOCK, pc=0x900)
        v = yield b.take()
        b.stcx(LOCK, 1, pc=0x900, meta={"sle_fallback": ("cas",)})
        ok = yield b.take()
        assert ok
        for i in range(body_ops):
            b.store(DATA + (i % 8) * 8, i)
            if (i + 1) % 32 == 0:
                yield b.take()
        if release:
            b.store(LOCK, 0)
        b.end()
        yield b.take()

    return prog


def test_region_within_threshold_elides(tiny_config):
    # rob 32, threshold 0.5 -> 16-op regions fit.
    res, sys_ = run_single(tiny_config, locked_region(10))
    assert sys_.stats["sle0.successes"] == 1
    assert sys_.stats["sle0.failure.no_release"] == 0


def test_region_beyond_threshold_aborts_even_with_release(tiny_config):
    """The in-core constraint (§4.2.1): a critical section larger than
    the ROB threshold cannot be elided even though a release exists."""
    res, sys_ = run_single(tiny_config, locked_region(60))
    assert sys_.stats["sle0.successes"] == 0
    assert sys_.stats["sle0.failure.no_release"] == 1
    assert sys_.stats["sle0.fallback_acquisitions"] == 1
    # The program still completed correctly: lock released for real.
    assert sys_.controllers[0].lookup(LOCK).data[0] == 0


def test_bigger_threshold_recovers_the_elision(tiny_config):
    cfg = tiny_config.with_core(rob_size=256)
    res, sys_ = run_single(cfg, locked_region(60))
    assert sys_.stats["sle0.successes"] == 1


def test_program_end_inside_region_aborts(tiny_config):
    res, sys_ = run_single(tiny_config, locked_region(4, release=False))
    assert sys_.stats["sle0.failure.no_release"] == 1
    # Fallback made the speculative acquire real; nobody released.
    assert sys_.controllers[0].lookup(LOCK).data[0] == 1
    assert sys_.cores[0].finished


def test_region_stores_all_land_atomically(tiny_config):
    res, sys_ = run_single(tiny_config, locked_region(8))
    line = sys_.controllers[0].lookup(DATA)
    assert line.data == [0, 1, 2, 3, 4, 5, 6, 7]
