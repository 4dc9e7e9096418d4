"""The runtime coherence checker, and whole-benchmark audited runs."""

import dataclasses

import pytest

from repro.coherence.states import LineState
from repro.coherence.validation import CoherenceChecker
from repro.common.config import InterconnectKind, ProtocolKind, ValidatePolicy
from repro.common.errors import ProtocolError
from repro.system.system import System
from repro.system.techniques import configure_technique
from repro.workloads.registry import get_benchmark
from tests.harness import MemHarness

ADDR = 0x10000


def audited_run(config, benchmark="radiosity", scale=0.03, seed=1):
    system = System(config, get_benchmark(benchmark, scale=scale), seed=seed)
    checker = CoherenceChecker(system)
    system.run(max_cycles=30_000_000, max_events=10_000_000)
    checker.check_all()
    return checker


@pytest.mark.parametrize(
    "technique", ["base", "mesti", "emesti", "lvp", "sle", "emesti+lvp+sle"]
)
def test_benchmark_run_upholds_invariants(technique, tiny4_config):
    cfg = configure_technique(tiny4_config, technique)
    checker = audited_run(cfg)
    assert checker.checks > 50  # the audit actually ran per grant


@pytest.mark.parametrize("technique", ["mesti", "emesti", "emesti+lvp"])
def test_directory_run_upholds_invariants(technique, tiny4_config):
    cfg = configure_technique(tiny4_config, technique)
    cfg = dataclasses.replace(cfg, interconnect=InterconnectKind.DIRECTORY)
    checker = audited_run(cfg, benchmark="tpc-b")
    assert checker.checks > 50


def test_directory_checker_holds_only_tracked_t_copies(tiny_config):
    """On the directory a tracked T copy must hold the last globally
    visible value, as in the model; an untracked one may rot, since no
    validate will reach it."""
    cfg = dataclasses.replace(
        tiny_config.with_protocol(
            kind=ProtocolKind.MESTI, validate_policy=ValidatePolicy.ALWAYS
        ),
        interconnect=InterconnectKind.DIRECTORY,
    )
    h = MemHarness(cfg, n_procs=3)
    checker = CoherenceChecker(h)
    h.load(1, ADDR)
    h.store(0, ADDR, 5)
    t_copy = h.controllers[1].lookup(ADDR)
    assert t_copy.state is LineState.T
    assert 1 in h.bus.entry(ADDR).t_sharers
    t_copy.data[0] ^= 0xDEAD
    with pytest.raises(ProtocolError, match="globally visible"):
        checker.check_line(ADDR)

    h.load(2, ADDR)  # P0 flushes; the home stops tracking P1
    assert t_copy.state is LineState.T
    assert 1 not in h.bus.entry(ADDR).t_sharers
    t_copy.data[1] ^= 0xBEEF
    checker.check_line(ADDR)


def test_checker_detects_planted_violation(tiny4_config):
    system = System(
        tiny4_config, get_benchmark("radiosity", scale=0.02), seed=1
    )
    checker = CoherenceChecker(system)
    system.run(max_cycles=30_000_000)
    # Plant a second writer for a resident line.
    victim = next(iter(system.controllers[0].l2.resident_lines()))
    line0 = victim
    line0.state = LineState.M
    other = system.controllers[1].l2.allocate(line0.base)[0] \
        if system.controllers[1].lookup(line0.base) is None \
        else system.controllers[1].lookup(line0.base)
    other.state = LineState.M
    with pytest.raises(ProtocolError):
        checker.check_line(line0.base)


def test_checker_detects_value_divergence(tiny4_config):
    system = System(
        tiny4_config, get_benchmark("radiosity", scale=0.02), seed=1
    )
    checker = CoherenceChecker(system)
    system.run(max_cycles=30_000_000)
    shared = None
    for ctrl in system.controllers:
        for line in ctrl.l2.resident_lines():
            if line.state is LineState.S:
                peers = [
                    c.lookup(line.base)
                    for c in system.controllers
                    if c.lookup(line.base) is not None
                    and c.lookup(line.base).state.valid
                ]
                if len(peers) > 1:
                    shared = line
                    break
        if shared:
            break
    if shared is None:
        pytest.skip("no multiply-shared line in this tiny run")
    shared.data[0] ^= 0xDEAD
    with pytest.raises(ProtocolError):
        checker.check_line(shared.base)


def test_check_all_sweeps_lines_in_sorted_base_order():
    """Regression (simlint SL002): the end-of-run sweep must audit lines
    in sorted-base order, not set hash order, so the first-reported
    violation is deterministic across PYTHONHASHSEED values."""

    class _StubLine:
        def __init__(self, base):
            self.base = base

    class _StubCache:
        def __init__(self, bases):
            self._bases = bases

        def resident_lines(self):
            return [_StubLine(b) for b in self._bases]

    class _StubCtrl:
        def __init__(self, bases):
            self.l2 = _StubCache(bases)

    class _StubSystem:
        # Bases deliberately inserted out of order and overlapping.
        controllers = [
            _StubCtrl([0x4C0, 0x100, 0x7F40]),
            _StubCtrl([0x100, 0x2300, 0x40]),
        ]

    checker = CoherenceChecker.__new__(CoherenceChecker)
    checker.system = _StubSystem()
    audited = []
    checker.check_line = audited.append
    checker.check_all()
    assert audited == [0x40, 0x100, 0x4C0, 0x2300, 0x7F40]
