"""Window (ROB), width, and fetch-gating limits."""

import dataclasses

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload


def run_one(config, fn, seed=0):
    cfg = dataclasses.replace(config, n_procs=1)
    sys_ = System(cfg, ScriptWorkload(fn), seed=seed)
    res = sys_.run(max_cycles=10_000_000, max_events=4_000_000)
    return res, sys_


def test_small_window_limits_mlp(tiny_config):
    """A tiny ROB cannot keep many misses in flight."""

    def prog(tid, config, rng):
        b = BlockBuilder()
        for i in range(12):
            b.load(0x10000 + i * 64, b.fresh())
            for _ in range(8):
                b.alu()
        b.end()
        yield b.take()

    small, _ = run_one(tiny_config.with_core(rob_size=8), prog)
    big, _ = run_one(tiny_config.with_core(rob_size=128), prog)
    assert small.cycles > big.cycles * 1.5


def test_width_bounds_throughput(tiny_config):
    def prog(tid, config, rng):
        b = BlockBuilder()
        for _ in range(200):
            b.alu(latency=1)
        b.end()
        yield b.take()

    narrow, _ = run_one(tiny_config.with_core(width=1), prog)
    wide, _ = run_one(tiny_config.with_core(width=4), prog)
    # 200 independent ALUs: ~200 cycles at width 1, ~50 at width 4.
    assert narrow.cycles > wide.cycles * 2.5


def test_aggregate_ipc_bounded_by_total_width(tiny4_config):
    from repro.workloads.registry import get_benchmark

    res = System(
        tiny4_config, get_benchmark("radiosity", scale=0.02), seed=1
    ).run(max_cycles=20_000_000)
    assert res.ipc <= tiny4_config.core.width * tiny4_config.n_procs


def test_fetch_resumes_after_window_drain(tiny_config):
    """Window-full stalls resolve when the blocking miss returns."""

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.load(0x10000, b.fresh())  # long miss at the head
        for _ in range(60):  # more ops than an 8-entry window holds
            b.alu(latency=1)
        b.end()
        yield b.take()

    res, sys_ = run_one(tiny_config.with_core(rob_size=8), prog)
    assert sys_.cores[0].finished
    assert res.committed == 62


def test_per_core_ipc_cannot_exceed_width(tiny_config):
    def prog(tid, config, rng):
        b = BlockBuilder()
        for _ in range(400):
            b.alu(latency=1)
        b.end()
        yield b.take()

    res, _ = run_one(tiny_config.with_core(width=2), prog)
    assert res.ipc <= 2.0 + 0.01
