"""Directory-based interconnect (§6 future-work variant)."""

import dataclasses

import pytest

from repro.common.config import (
    InterconnectKind,
    ProtocolKind,
    ValidatePolicy,
    scaled_config,
)
from repro.coherence.directory import DirectoryNetwork
from repro.coherence.states import LineState
from repro.experiments.runner import cell_config, run_cell
from tests.harness import MemHarness

ADDR = 0x10000


def dir_harness(config, **proto):
    cfg = dataclasses.replace(config, interconnect=InterconnectKind.DIRECTORY)
    if proto:
        cfg = cfg.with_protocol(**proto)
    return MemHarness(cfg)


@pytest.fixture
def h(tiny_config):
    return dir_harness(dataclasses.replace(tiny_config, n_procs=3))


@pytest.fixture
def hm(tiny_config):
    return dir_harness(
        dataclasses.replace(tiny_config, n_procs=3),
        kind=ProtocolKind.MOESTI, validate_policy=ValidatePolicy.ALWAYS,
    )


class TestBasicCoherence:
    def test_harness_runs_on_the_directory(self, h):
        assert isinstance(h.bus, DirectoryNetwork)

    def test_read_write_round_trip(self, h):
        h.store(0, ADDR, 42)
        assert h.load(1, ADDR)[1] == 42
        h.store(1, ADDR, 7)
        assert h.load(0, ADDR)[1] == 7

    def test_invalidations_are_precise(self, h):
        h.load(0, ADDR)
        h.load(1, ADDR)
        # P2 never touched the line: the home must not message it.
        msgs_before = h.stats["bus.messages"]
        h.store(0, ADDR, 1)
        # Upgrade contacted exactly one sharer (P1), plus the request.
        assert h.stats["bus.messages"] - msgs_before == 2
        assert h.line_state(1, ADDR) is LineState.I

    def test_dirty_forwarding(self, h):
        h.store(0, ADDR, 9)
        kind, value, _ = h.load(1, ADDR)
        assert value == 9
        assert h.stats["bus.txn.cache_to_cache"] == 1

    def test_exclusive_then_silent_upgrade(self, h):
        h.load(0, ADDR)
        assert h.line_state(0, ADDR) is LineState.E
        before = h.stats["bus.txn.total"]
        h.store(0, ADDR, 3)
        assert h.stats["bus.txn.total"] == before  # E->M without messages

    def test_indirection_costs_latency(self, tiny_config):
        bus_h = MemHarness(tiny_config)
        dir_h = dir_harness(tiny_config)
        for harness in (bus_h, dir_h):
            harness.load(0, ADDR)
        # Compare completion times via the scheduler clock after one
        # cold read each: the directory pays the home hop.
        assert dir_h.scheduler.now > bus_h.scheduler.now


class TestMestiOverDirectory:
    def test_validate_multicasts_to_t_sharers(self, hm):
        hm.store(0, ADDR, 0)
        hm.load(1, ADDR)
        hm.store(0, ADDR, 1)  # P1 -> T, tracked by the home
        assert hm.line_state(1, ADDR) is LineState.T
        msgs_before = hm.stats["bus.messages"]
        hm.store(0, ADDR, 0)  # temporal silence -> validate
        hm.drain()
        # Validate contacted exactly the one T-sharer.
        assert hm.stats["bus.txn.validate"] == 1
        assert hm.line_state(1, ADDR) is LineState.S
        kind, value, _ = hm.load(1, ADDR)
        assert kind == "hit" and value == 0

    def test_untracked_nodes_not_validated(self, hm):
        hm.store(0, ADDR, 0)
        hm.load(1, ADDR)
        hm.store(0, ADDR, 1)
        msgs_before = hm.stats["bus.messages"]
        hm.store(0, ADDR, 0)
        hm.drain()
        # request + one T-sharer = 2 messages for the validate.
        validate_msgs = hm.stats["bus.messages"] - msgs_before
        assert validate_msgs == 2

    def test_dirty_read_stops_t_tracking(self, hm):
        hm.store(0, ADDR, 0)
        hm.load(1, ADDR)
        hm.store(0, ADDR, 1)  # P1 -> T(0)
        hm.load(2, ADDR)  # dirty flush: v1 became visible
        hm.store(2, ADDR, 5)
        hm.store(2, ADDR, 1)  # P2 reverts to ITS visible value (1)
        hm.drain()
        # P1's T(0) copy must never be re-installed: it is untracked.
        assert hm.line_state(1, ADDR) in (LineState.T, LineState.I)
        kind, value, _ = hm.load(1, ADDR, spec=False)
        assert value == 1  # coherent value, via a real miss

    def test_useful_snoop_response_computable_at_home(self, tiny_config):
        cfg = dataclasses.replace(tiny_config, n_procs=3)
        h = dir_harness(
            cfg, kind=ProtocolKind.MOESTI, enhanced=True,
            validate_policy=ValidatePolicy.PREDICTOR,
        )
        # Train up and validate (scaled default predictor validates cold
        # only if initial >= threshold; tiny config uses 3-4: train).
        h.store(0, ADDR, 0)
        h.load(1, ADDR)
        h.store(0, ADDR, 1)
        h.store(0, ADDR, 0)
        h.drain()
        h.load(1, ADDR)  # external request trains +1 (or consumes VS)
        h.store(0, ADDR, 1)
        h.store(0, ADDR, 0)
        h.drain()
        assert h.stats["bus.txn.validate"] >= 1
        assert h.line_state(1, ADDR) in (LineState.VS, LineState.S)


class TestValueCorrectnessOverDirectory:
    def test_property_style_mixed_traffic(self, tiny_config):
        import random

        cfg = dataclasses.replace(tiny_config, n_procs=3).with_protocol(
            kind=ProtocolKind.MOESTI, validate_policy=ValidatePolicy.ALWAYS
        )
        h = dir_harness(cfg, kind=ProtocolKind.MOESTI,
                        validate_policy=ValidatePolicy.ALWAYS)
        rng = random.Random(7)
        shadow = {}
        lines = [ADDR, ADDR + 64, ADDR + 128]
        for _ in range(120):
            proc = rng.randrange(3)
            base = rng.choice(lines)
            widx = rng.choice((0, 3))
            addr = base + widx * 8
            if rng.random() < 0.5:
                value = rng.randrange(4)
                h.store(proc, addr, value)
                shadow[addr] = value
            else:
                _, observed, _ = h.load(proc, addr, spec=False)
                assert observed == shadow.get(addr, 0), hex(addr)
            h.drain()


# Cycles/committed of whole directory cells (scale 0.05, seed 1): the
# bench gate's baseline and perfbench's digests cover bus cells only,
# so these pin the directory grant's timing.
@pytest.mark.parametrize(
    ("workload", "technique", "cycles", "committed"),
    [
        ("radiosity", "base", 15613, 12443),
        ("radiosity", "emesti", 15219, 16573),
        ("tpc-b", "base", 18168, 6412),
        ("tpc-b", "emesti", 19142, 7594),
        ("locks", "base", 8177, 2264),
        ("locks", "emesti", 7747, 2827),
    ],
)
def test_directory_cell_timing(workload, technique, cycles, committed):
    base = dataclasses.replace(
        scaled_config(), interconnect=InterconnectKind.DIRECTORY
    )
    summary = run_cell(cell_config(base, technique), workload, 0.05, 1)
    assert (summary["cycles"], summary["committed"]) == (cycles, committed)
