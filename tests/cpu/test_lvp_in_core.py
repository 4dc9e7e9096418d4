"""LVP through the core: speculation, verification, squash/replay."""

import pytest

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload

# Squashes must drop their stores from the core's forwarding index.
pytestmark = pytest.mark.usefixtures("checked_store_index")

LINE = 0x5000
FLAG = 0x5800


def lvp_cfg(base):
    return base.with_lvp(enabled=True)


def two_phase(consumer_body):
    """P1 warms+invalidates P0's line, then P0 runs consumer_body."""

    def p0(tid, config, rng):
        b = BlockBuilder()
        b.load_ctl(LINE)  # warm our copy
        v = yield b.take()
        while True:  # wait for P1's signal
            b.load_ctl(FLAG)
            f = yield b.take()
            if f:
                break
            for _ in range(6):
                b.alu(latency=2)
        yield from consumer_body(b)
        b.end()
        yield b.take()

    def p1(tid, config, rng):
        b = BlockBuilder()
        b.store(LINE + 8, 99)  # false-sharing invalidation (word 1)
        b.sync()
        b.store(FLAG, 1)
        b.end()
        yield b.take()

    return p0, p1


class TestVerification:
    def test_correct_prediction_commits(self, tiny_config):
        def body(b):
            b.load(LINE, b.fresh())  # word 0: unchanged -> correct
            yield b.take()

        p0, p1 = two_phase(body)
        sys_ = System(lvp_cfg(tiny_config), ScriptWorkload(p0, p1), seed=0)
        res = sys_.run(max_cycles=5_000_000)
        assert res.stats["node0.lvp.predictions"] >= 1
        assert res.stats["node0.lvp.correct"] >= 1
        assert res.stats["core0.squash.lvp"] == 0

    def test_wrong_prediction_squashes_and_heals(self, tiny_config):
        observed = []

        def body(b):
            b.load_ctl(LINE + 8)  # the changed word... control: no spec
            v = yield b.take()
            observed.append(("ctl", v))
            b.load(LINE + 8, b.fresh())  # non-control reread: hits now
            yield b.take()

        # Use a non-control mispredicting load: plain load of word 1.
        def body2(b):
            dst = b.fresh()
            b.load(LINE + 8, dst)  # stale residue 0, real 99 -> squash
            b.alu(b.fresh(), (dst,), latency=2)
            yield b.take()

        p0, p1 = two_phase(body2)
        sys_ = System(lvp_cfg(tiny_config), ScriptWorkload(p0, p1), seed=0)
        res = sys_.run(max_cycles=5_000_000)
        assert res.stats["node0.lvp.mispredictions"] >= 1
        assert res.stats["core0.squash.lvp"] >= 1
        # After the squash the machine completed everything.
        assert sys_.cores[0].finished

    def test_control_loads_never_speculate(self, tiny_config):
        def body(b):
            b.load_ctl(LINE + 8)  # control: always architectural
            v = yield b.take()
            assert v == 99  # the REAL value, never the stale residue
            b.alu()
            yield b.take()

        p0, p1 = two_phase(body)
        sys_ = System(lvp_cfg(tiny_config), ScriptWorkload(p0, p1), seed=0)
        res = sys_.run(max_cycles=5_000_000)
        assert res.stats["core0.squash.lvp"] == 0

    def test_squash_penalty_costs_cycles(self, tiny_config):
        def correct(b):
            b.load(LINE, b.fresh())
            yield b.take()

        def wrong(b):
            b.load(LINE + 8, b.fresh())
            yield b.take()

        def run(body):
            p0, p1 = two_phase(body)
            sys_ = System(lvp_cfg(tiny_config), ScriptWorkload(p0, p1), seed=0)
            return sys_.run(max_cycles=5_000_000)

        ok = run(correct)
        bad = run(wrong)
        # A mispredict costs at least the squash penalty over a correct
        # prediction of the same shape.
        assert bad.stats["core0.finish_time"] >= ok.stats["core0.finish_time"]


class TestSpeculationWindow:
    def test_dependent_chain_issues_early_on_prediction(self, tiny_config):
        """The §3 MLP benefit: dependent misses overlap verification."""
        FAR = 0x2_0000

        def chained(b):
            root = b.fresh()
            b.load(LINE, root)  # predicted (word 0 unchanged)
            child = b.fresh()
            b.load(FAR, child, sregs=(root,))  # dependent cold miss
            b.alu(b.fresh(), (child,), latency=1)
            yield b.take()

        def run(lvp):
            p0, p1 = two_phase(chained)
            cfg = lvp_cfg(tiny_config) if lvp else tiny_config
            sys_ = System(cfg, ScriptWorkload(p0, p1), seed=0)
            res = sys_.run(max_cycles=5_000_000)
            return res.stats["core0.finish_time"]

        assert run(lvp=True) < run(lvp=False)
