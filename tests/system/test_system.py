"""System assembly and run loop."""

import dataclasses

import pytest

from repro.common.errors import DeadlockError
from repro.cpu.program import BlockBuilder
from repro.system.system import RunResult, System, run_workload
from tests.harness import ScriptWorkload


def trivial(tid, config, rng):
    b = BlockBuilder()
    for _ in range(5):
        b.alu()
    b.store(0x1000 + tid * 0x100, tid + 1)
    b.end()
    yield b.take()


class TestSystem:
    def test_builds_requested_processor_count(self, tiny4_config):
        sys_ = System(tiny4_config, ScriptWorkload(*([trivial] * 4)), seed=0)
        assert len(sys_.cores) == 4
        assert len(sys_.controllers) == 4
        assert sys_.bus.n_clients == 4

    def test_run_returns_result(self, tiny_config):
        res = run_workload(tiny_config, ScriptWorkload(trivial, trivial), seed=0)
        assert isinstance(res, RunResult)
        assert res.cycles > 0
        assert res.committed == 14  # 7 ops x 2 threads
        assert res.ipc > 0

    def test_program_count_mismatch_rejected(self, tiny_config):
        with pytest.raises(DeadlockError, match="programs"):
            System(tiny_config, ScriptWorkload(trivial), seed=0)

    def test_sle_engines_only_when_enabled(self, tiny_config):
        plain = System(tiny_config, ScriptWorkload(trivial, trivial), seed=0)
        assert not plain.engines
        sle = System(
            tiny_config.with_sle(enabled=True),
            ScriptWorkload(trivial, trivial), seed=0,
        )
        assert len(sle.engines) == 2

    def test_summary_counters_recorded(self, tiny_config):
        sys_ = System(tiny_config, ScriptWorkload(trivial, trivial), seed=0)
        res = sys_.run()
        assert res.stats["run.cycles"] == res.cycles
        assert res.stats["run.committed"] == res.committed
        assert res.stats["run.events"] > 0

    def test_stall_raises_deadlock_error(self, tiny_config):
        def stuck(tid, config, rng):
            b = BlockBuilder()
            while True:  # spin on a flag nobody sets
                b.load_ctl(0x4000)
                v = yield b.take()
                if v:
                    break
            b.end()
            yield b.take()

        sys_ = System(tiny_config, ScriptWorkload(stuck, trivial), seed=0)
        with pytest.raises(Exception):
            sys_.run(max_cycles=20_000)

    @pytest.mark.parametrize("heartbeat", [0, 100])
    def test_larx_behind_a_store_that_never_drains_deadlocks(
        self, tiny_config, heartbeat
    ):
        # The larx's 2-cycle retries are parked, not events: once the
        # other core finishes the queue is empty, and the run stops at
        # once instead of retrying until max_cycles.  A heartbeat does
        # not keep the queue alive either.
        def store_then_larx(tid, config, rng):
            b = BlockBuilder()
            b.store(0x4000, 1)
            b.larx(0x4000)
            yield b.take()
            b.end()
            yield b.take()

        sys_ = System(tiny_config, ScriptWorkload(store_then_larx, trivial), seed=0)
        sys_.nodes[0].store = lambda addr, value, pc, on_done: None
        with pytest.raises(DeadlockError, match=r"P0: .* parked_larx=1"):
            sys_.run(heartbeat=heartbeat)
        assert sys_.scheduler.events_fired < 100


class TestDeterminism:
    def test_same_seed_same_result(self, tiny4_config):
        from repro.workloads.registry import get_benchmark

        def once():
            wl = get_benchmark("radiosity", scale=0.02)
            return System(tiny4_config, wl, seed=42).run()

        a, b = once(), once()
        assert a.cycles == b.cycles
        assert a.committed == b.committed
        assert a.stats.snapshot() == b.stats.snapshot()

    def test_different_seed_different_timing(self, tiny4_config):
        import dataclasses

        from repro.workloads.registry import get_benchmark

        cfg = dataclasses.replace(tiny4_config, latency_jitter=8)

        def once(seed):
            wl = get_benchmark("radiosity", scale=0.02)
            return System(cfg, wl, seed=seed).run()

        cycles = {once(seed).cycles for seed in (1, 2, 3)}
        assert len(cycles) > 1
