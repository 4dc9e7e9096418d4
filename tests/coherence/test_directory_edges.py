"""Directory interconnect edge cases: races, conversions, cancellation."""

import dataclasses

import pytest

from repro.common.config import InterconnectKind, ProtocolKind, ValidatePolicy
from repro.coherence.states import LineState
from tests.harness import MemHarness

ADDR = 0x10000


def make(config, n=2, **proto):
    cfg = dataclasses.replace(
        config, n_procs=n, interconnect=InterconnectKind.DIRECTORY
    )
    if proto:
        cfg = cfg.with_protocol(**proto)
    return MemHarness(cfg)


def test_racing_upgrades_convert(tiny_config):
    h = make(tiny_config)
    h.load(0, ADDR)
    h.load(1, ADDR)
    done = []
    h.nodes[0].store(ADDR, 1, 0, lambda: done.append(0))
    h.nodes[1].store(ADDR, 2, 0, lambda: done.append(1))
    h.drain()
    assert len(done) == 2
    assert h.stats["ctrl1.upgrade_converted_to_readx"] == 1
    assert h.load(0, ADDR)[1] == 2


def test_validate_cancelled_after_owner_loses_line(tiny_config):
    h = make(tiny_config, n=3, kind=ProtocolKind.MOESTI,
             validate_policy=ValidatePolicy.ALWAYS)
    h.store(0, ADDR, 0)
    h.load(1, ADDR)
    h.store(0, ADDR, 1)
    h.store(0, ADDR, 0)  # validate queued
    h.store(2, ADDR, 9)  # a write may serialize before the validate
    h.drain()
    # Whatever the interleaving, the coherent value is 9 everywhere.
    assert h.load(0, ADDR)[1] == 9
    assert h.load(1, ADDR)[1] == 9


def test_writeback_through_home(tiny_config):
    h = make(tiny_config)
    h.store(0, ADDR, 7)
    l2 = h.controllers[0].l2
    stride = l2.config.num_sets * 64
    for i in range(1, l2.config.ways + 1):
        h.load(0, ADDR + i * stride)
    assert h.memory.read_line(ADDR)[0] == 7
    assert h.stats["bus.txn.writeback"] >= 1


def test_reservation_semantics_over_directory(tiny_config):
    h = make(tiny_config)
    h.load(0, ADDR, reserve=True)
    h.store(1, ADDR, 5)  # precise invalidation reaches the reserver
    assert not h.stcx(0, ADDR, 1)
    h.load(0, ADDR, reserve=True)
    assert h.stcx(0, ADDR, 1)


def test_lvp_over_directory(tiny_config):
    cfg = dataclasses.replace(
        tiny_config.with_lvp(enabled=True), n_procs=2,
        interconnect=InterconnectKind.DIRECTORY,
    )
    h = MemHarness(cfg)
    h.store(0, ADDR, 5)
    h.load(1, ADDR)
    h.store(0, ADDR + 8, 1)  # false sharing: word 0 unchanged
    status, value, op = h.load(1, ADDR)
    assert status == "spec" and value == 5
    h.drain()
    assert op.verified


def test_messages_counted(tiny_config):
    h = make(tiny_config)
    h.load(0, ADDR)
    assert h.stats["bus.messages"] >= 1
