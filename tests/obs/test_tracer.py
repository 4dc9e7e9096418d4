"""Tracer: event capture, filtering, ring buffer, serialization."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.obs.report import load_trace
from repro.obs.tracer import (
    EVENT_KINDS,
    NULL_TRACER,
    TraceEvent,
    TraceFilter,
    Tracer,
    chrome_document,
)


class TestEmit:
    def test_records_clock_and_coords(self):
        clock = {"now": 0}
        tracer = Tracer(clock=lambda: clock["now"])
        clock["now"] = 42
        tracer.emit("bus.grant", node=2, base=0x1440, txn="read")
        [event] = tracer.events
        assert event.ts == 42
        assert event.kind == "bus.grant"
        assert event.node == 2
        assert event.base == 0x1440
        assert event.fields == {"txn": "read"}

    def test_explicit_ts_overrides_clock(self):
        tracer = Tracer(clock=lambda: 100)
        tracer.emit("mem.miss", node=0, base=0, ts=7, dur=93)
        assert tracer.events[0].ts == 7

    def test_bind_clock_follows_scheduler(self):
        from repro.common.events import Scheduler

        sched = Scheduler()
        tracer = Tracer()
        tracer.bind_clock(sched)
        sched.at(13, lambda: tracer.emit("bus.grant"))
        sched.run()
        assert tracer.events[0].ts == 13

    def test_len_and_iter(self):
        tracer = Tracer()
        tracer.emit("bus.grant")
        tracer.emit("bus.cancel")
        assert len(tracer) == 2
        assert [e.kind for e in tracer] == ["bus.grant", "bus.cancel"]


class TestRingBuffer:
    def test_keeps_most_recent(self):
        tracer = Tracer(clock=lambda: 0, ring=3)
        for i in range(10):
            tracer.emit("bus.grant", ts=i)
        assert len(tracer) == 3
        assert [e.ts for e in tracer.events] == [7, 8, 9]
        assert tracer.overwritten == 7
        assert Tracer(clock=lambda: 0).overwritten == 0


class TestTraceFilter:
    def test_exact_kind(self):
        filt = TraceFilter(kinds=["bus.grant"])
        assert filt.matches("bus.grant", None, None)
        assert not filt.matches("bus.cancel", None, None)

    def test_prefix_kind_matches_family(self):
        filt = TraceFilter(kinds=["validate"])
        assert filt.matches("validate.broadcast", None, None)
        assert filt.matches("validate.suppressed", None, None)
        assert not filt.matches("bus.grant", None, None)

    def test_prefix_does_not_match_substring(self):
        # "bus" must not match a hypothetical "busy.thing" kind.
        filt = TraceFilter(kinds=["bus"])
        assert not filt.matches("busy.thing", None, None)

    def test_node_and_base_clauses(self):
        filt = TraceFilter(nodes=[0, 1], bases=[0x40])
        assert filt.matches("bus.grant", 0, 0x40)
        assert not filt.matches("bus.grant", 2, 0x40)
        assert not filt.matches("bus.grant", 0, 0x80)
        # Events without a node/base pass those clauses.
        assert filt.matches("bus.grant", None, None)

    def test_dropped_counter(self):
        tracer = Tracer(filter=TraceFilter(kinds=["lvp"]))
        tracer.emit("bus.grant")
        tracer.emit("lvp.predict")
        assert len(tracer) == 1
        assert tracer.filtered == 1

    def test_parse_full_grammar(self):
        filt = TraceFilter.parse("kind=validate|bus.grant,node=0-2,addr=0x1440")
        assert filt.matches("validate.broadcast", 1, 0x1440)
        assert filt.matches("bus.grant", 2, 0x1440)
        assert not filt.matches("bus.grant", 3, 0x1440)
        assert not filt.matches("bus.grant", 1, 0x1480)
        assert not filt.matches("sle.attempt", 1, 0x1440)

    def test_parse_bad_clause_raises(self):
        with pytest.raises(ConfigError):
            TraceFilter.parse("kindvalidate")
        with pytest.raises(ConfigError):
            TraceFilter.parse("frob=1")

    def test_parse_empty_expr_matches_everything(self):
        # No clauses → no constraints; stray separators are ignored.
        for expr in ("", "   ", ",", " , ,"):
            filt = TraceFilter.parse(expr)
            assert filt.kinds is None and filt.nodes is None
            assert filt.matches("bus.grant", 7, 0xFFFF)

    def test_parse_tolerates_whitespace(self):
        filt = TraceFilter.parse(" kind = validate | bus.grant , node = 0 - 2 ")
        assert filt.matches("validate.broadcast", 0, None)
        assert filt.matches("bus.grant", 2, None)
        assert not filt.matches("bus.grant", 3, None)

    def test_parse_unknown_key_names_the_key(self):
        with pytest.raises(ConfigError, match="'proc'"):
            TraceFilter.parse("proc=0")


class TestNullTracer:
    def test_not_a_tracer_subclass(self):
        # The zero-overhead guarantee: the disabled path is a dedicated
        # no-op object sharing no code with the real Tracer.
        assert not isinstance(NULL_TRACER, Tracer)
        assert Tracer not in type(NULL_TRACER).__mro__

    def test_emit_accepts_any_event_and_keeps_nothing(self):
        assert NULL_TRACER.emit("bus.grant", node=1, base=2, ts=3, x=4) is None
        assert not hasattr(NULL_TRACER, "_events")

    def test_system_defaults_to_null_tracer(self):
        from repro.common.config import scaled_config
        from repro.system.system import System
        from repro.workloads.registry import get_benchmark

        system = System(scaled_config(), get_benchmark("locks", scale=0.02))
        assert system.tracer is NULL_TRACER


class TestSerialization:
    def make_tracer(self):
        tracer = Tracer(clock=lambda: 0)
        tracer.emit("cache.transition", node=1, base=0x80, ts=5, frm="I", to="S")
        tracer.emit("mem.miss", node=0, base=0x40, ts=2, dur=100, store=False)
        return tracer

    def test_jsonl_round_trip(self):
        tracer = self.make_tracer()
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 3  # two rows, then the trailer
        first = json.loads(lines[0])
        assert first == {
            "ts": 5, "kind": "cache.transition", "node": 1, "base": 0x80,
            "frm": "I", "to": "S",
        }
        assert json.loads(lines[-1]) == {
            "meta": "tracer", "events": 2, "dropped": 0,
        }

    def test_chrome_shape(self):
        doc = chrome_document(self.make_tracer().events)
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        miss = by_name["mem.miss"]
        assert miss["ph"] == "X" and miss["dur"] == 100
        assert miss["tid"] == 0 and miss["pid"] == 0
        inst = by_name["cache.transition"]
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert inst["args"]["base"] == "0x80"

    def test_chrome_sorted_by_ts(self):
        doc = chrome_document(self.make_tracer().events)
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert ts == sorted(ts)

    def test_save_jsonl_and_chrome(self, tmp_path):
        # The saved file is the one format; Chrome is exported from it.
        tracer = self.make_tracer()
        path = tmp_path / "t.jsonl"
        tracer.save(path)
        assert len(path.read_text().splitlines()) == 3
        load = load_trace(path)
        assert load.skipped == 0
        assert chrome_document(load.events) == chrome_document(tracer.events)


class TestTaxonomy:
    def test_kinds_are_dotted_families(self):
        for kind in EVENT_KINDS:
            family, _, rest = kind.partition(".")
            assert family and rest, kind

    def test_event_to_dict_omits_empty_coords(self):
        event = TraceEvent(ts=1, kind="bus.grant")
        assert event.to_dict() == {"ts": 1, "kind": "bus.grant"}


class TestEndToEnd:
    def test_traced_run_covers_protocol_families(self):
        from repro.common.config import scaled_config
        from repro.system.system import System
        from repro.system.techniques import configure_technique
        from repro.workloads.registry import get_benchmark

        tracer = Tracer()
        config = configure_technique(scaled_config(), "emesti+lvp+sle")
        system = System(
            config, get_benchmark("locks", scale=0.1), seed=1, tracer=tracer
        )
        system.run()
        kinds = {e.kind for e in tracer.events}
        assert kinds <= EVENT_KINDS
        for family in ("bus.", "cache.", "validate.", "mem."):
            assert any(k.startswith(family) for k in kinds), family
        # Timestamps never exceed the final simulated cycle.
        assert max(e.ts for e in tracer.events) <= system.scheduler.now
