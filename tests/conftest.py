"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    BusConfig,
    CacheConfig,
    CoreConfig,
    MachineConfig,
    ProtocolConfig,
    ProtocolKind,
    ValidatePolicy,
    scaled_config,
)
from repro.cpu.core import Core
from repro.cpu.isa import OpKind


@pytest.fixture
def tiny_config() -> MachineConfig:
    """A small, fast 2-processor machine for unit/integration tests."""
    return MachineConfig(
        n_procs=2,
        core=CoreConfig(width=2, rob_size=32, store_buffer=8, mshrs=4),
        l1=CacheConfig(1024, 2, latency=1),
        l2=CacheConfig(8192, 4, latency=4),
        bus=BusConfig(addr_latency=10, addr_occupancy=2,
                      data_latency=40, data_occupancy=4),
        protocol=ProtocolConfig(kind=ProtocolKind.MOESI),
    )


@pytest.fixture
def tiny4_config(tiny_config) -> MachineConfig:
    """The tiny machine with four processors."""
    return dataclasses.replace(tiny_config, n_procs=4)


def with_protocol(config: MachineConfig, kind: ProtocolKind, **kw) -> MachineConfig:
    """Helper: clone a config with a different protocol."""
    return config.with_protocol(kind=kind, **kw)


@pytest.fixture
def mesti_config(tiny_config) -> MachineConfig:
    return tiny_config.with_protocol(
        kind=ProtocolKind.MOESTI, validate_policy=ValidatePolicy.ALWAYS
    )


@pytest.fixture
def emesti_config(tiny_config) -> MachineConfig:
    return tiny_config.with_protocol(
        kind=ProtocolKind.MOESTI, enhanced=True,
        validate_policy=ValidatePolicy.PREDICTOR,
    )


@pytest.fixture
def experiment_config() -> MachineConfig:
    """The default experiment machine (scaled Table 1 ratios)."""
    return scaled_config()


def store_index_from_window(core: Core) -> dict:
    """The core's in-window store index, recomputed from ``core.window``."""
    index: dict = {}
    for w in core.window:
        if w.op.kind in (OpKind.STORE, OpKind.STCX):
            index.setdefault(w.op.addr, []).append(w)
    return index


@pytest.fixture
def checked_store_index(monkeypatch):
    """Check after every ``Core.pump`` that the store index matches the window.

    A commit or squash that forgets to drop an entry leaves a store in
    the index that is no longer in the window, and the next pump fails.
    """
    pump = Core.pump

    def checked_pump(self):
        pump(self)
        assert self._stores == store_index_from_window(self), (
            f"core {self.core_id}: store index out of step with the window"
        )

    monkeypatch.setattr(Core, "pump", checked_pump)
