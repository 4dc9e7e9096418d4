"""Trace recording and the trace-driven limit analyzer."""

from repro.analysis.trace import TraceRecord, TraceRecorder
from repro.analysis.tracedriven import TraceDrivenAnalyzer


def rec(node, kind, addr, value=0):
    return TraceRecord(node=node, kind=kind, addr=addr, value=value)


LINE = 0x1000


class TestAnalyzer:
    def test_cold_misses(self):
        a = TraceDrivenAnalyzer(2)
        out = a.analyze([rec(0, "load", LINE), rec(0, "load", LINE)])
        assert out.references == 2
        assert out.misses == 1 and out.cold_misses == 1
        assert out.comm_misses == 0

    def test_comm_miss_after_remote_write(self):
        a = TraceDrivenAnalyzer(2)
        out = a.analyze([
            rec(0, "load", LINE),
            rec(1, "store", LINE, 5),
            rec(0, "load", LINE),
        ])
        assert out.comm_misses == 1

    def test_true_sharing_not_capturable(self):
        a = TraceDrivenAnalyzer(2)
        out = a.analyze([
            rec(0, "load", LINE),
            rec(1, "store", LINE, 5),  # changes the word P0 reads
            rec(0, "load", LINE),
        ])
        assert out.lvp_capturable == 0
        assert out.mesti_capturable == 0

    def test_false_sharing_lvp_capturable_only(self):
        a = TraceDrivenAnalyzer(2)
        out = a.analyze([
            rec(0, "load", LINE),  # word 0
            rec(1, "store", LINE + 8, 5),  # a different word
            rec(0, "load", LINE),  # word 0 unchanged
        ])
        assert out.comm_misses == 1
        assert out.lvp_capturable == 1
        assert out.mesti_capturable == 0  # the line as a whole changed

    def test_temporal_silence_capturable_by_both(self):
        a = TraceDrivenAnalyzer(2)
        out = a.analyze([
            rec(0, "load", LINE),
            rec(1, "store", LINE, 5),
            rec(1, "store", LINE, 0),  # reverts: temporally silent pair
            rec(0, "load", LINE),
        ])
        assert out.comm_misses == 1
        assert out.lvp_capturable == 1
        assert out.mesti_capturable == 1

    def test_update_silent_store_still_invalidates_in_trace_model(self):
        a = TraceDrivenAnalyzer(2)
        out = a.analyze([
            rec(0, "load", LINE),
            rec(1, "store", LINE, 0),  # writes the existing value
            rec(0, "load", LINE),
        ])
        assert out.comm_misses == 1
        assert out.lvp_capturable == 1  # value unchanged

    def test_writes_count_as_references(self):
        a = TraceDrivenAnalyzer(2)
        out = a.analyze([rec(0, "store", LINE, 1), rec(0, "stcx", LINE, 2)])
        assert out.references == 2
        assert out.misses == 1  # second access hits

    def test_fractions(self):
        empty = TraceDrivenAnalyzer(2).analyze([])
        assert empty.lvp_fraction == 0.0 and empty.mesti_fraction == 0.0


class TestRecorderIntegration:
    def test_recorder_captures_system_references(self, tiny_config):
        from repro.cpu.program import BlockBuilder
        from repro.system.system import System
        from tests.harness import ScriptWorkload

        def prog(tid, config, rng):
            b = BlockBuilder()
            b.store(0x2000, 7)
            # A different line: store-to-load forwarding would satisfy
            # a same-word load inside the core, before the trace point.
            b.load(0x2040, b.fresh())
            b.larx(0x3000)
            v = yield b.take()
            b.stcx(0x3000, 1)
            ok = yield b.take()
            b.end()
            yield b.take()

        sys_ = System(tiny_config, ScriptWorkload(prog, prog), seed=0)
        recorder = TraceRecorder(sys_)
        sys_.run(max_cycles=5_000_000)
        kinds = {r.kind for r in recorder.records}
        assert {"store", "load", "larx", "stcx"} <= kinds
        assert recorder.writes() >= 2
        assert recorder.reads() >= 2
        assert len(recorder) == recorder.writes() + recorder.reads()

    def test_analyzer_on_recorded_trace(self, tiny_config):
        from repro.system.system import System
        from repro.workloads.registry import get_benchmark

        sys_ = System(tiny_config.with_lvp(enabled=False),
                      get_benchmark("radiosity", scale=0.02), seed=1)
        recorder = TraceRecorder(sys_)
        sys_.run(max_cycles=20_000_000)
        analysis = TraceDrivenAnalyzer(tiny_config.n_procs).analyze(recorder.records)
        assert analysis.references == len(recorder)
        assert analysis.misses >= analysis.comm_misses + analysis.cold_misses - 1
        assert 0 <= analysis.lvp_fraction <= 1
        # LVP's theoretical coverage dominates MESTI's (it adds false
        # sharing and quiet true sharing, §3.1).
        assert analysis.lvp_capturable >= analysis.mesti_capturable
