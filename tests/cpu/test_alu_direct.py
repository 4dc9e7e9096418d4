"""The direct ALU path against the window path.

While the window is empty and no elision runs, ``Core._fetch`` hands
each run of ALU ops to ``Core._commit_alu_run``, which commits them
without window entries.  ``_fetch`` admits every op that method does
not take, so patching it to take none runs the window path.  Both
paths must give the same cycles, committed count and statistics.
"""

import dataclasses

import pytest

from repro.common.config import InterconnectKind, scaled_config
from repro.cpu.core import Core
from repro.cpu.program import BlockBuilder
from repro.experiments.runner import cell_config
from repro.system.system import System
from repro.system.techniques import ALL_TECHNIQUES
from repro.workloads.registry import get_benchmark
from tests.harness import ScriptWorkload

LOCK = 0x3000
DATA = 0x3100
PRIVATE = 0x8000


def outcome(build):
    """Run a freshly built system; return what the two paths must share.

    Besides the results, each core's op count and register times must
    match: a later squash rebuilds the register map from them.
    """
    system = build()
    result = system.run(max_cycles=5_000_000, max_events=2_000_000)
    histograms = {
        name: (h.counts, h.count, h.total, h.min, h.max)
        for name, h in system.stats.histogram_items()
    }
    cores = [(c._seq, c._retired_regs, c.reg_map) for c in system.cores]
    return result.cycles, result.committed, system.stats.snapshot(), histograms, cores


def assert_paths_agree(monkeypatch, build):
    """Run ``build()`` on both paths; the direct path must take some ops."""
    run = Core._commit_alu_run
    taken = []

    def counted(self, block, pos):
        n = run(self, block, pos)
        taken.append(n)
        return n

    with monkeypatch.context() as m:
        m.setattr(Core, "_commit_alu_run", counted)
        direct = outcome(build)
    with monkeypatch.context() as m:
        m.setattr(Core, "_commit_alu_run", lambda self, block, pos: 0)
        window = outcome(build)
    assert sum(taken) > 0
    assert direct[:2] == window[:2]
    assert direct[2] == window[2]
    assert direct[3] == window[3]
    assert direct[4] == window[4]


# Every technique on both interconnects, each once, with the benchmark
# rotating so each of the four runs on both.
BENCHMARKS = ("raytrace", "ocean", "specweb", "locks")
CELLS = [
    (BENCHMARKS[(i + shift) % 4], technique, interconnect)
    for i, technique in enumerate(ALL_TECHNIQUES)
    for shift, interconnect in (
        (0, InterconnectKind.BUS), (2, InterconnectKind.DIRECTORY),
    )
]


@pytest.mark.parametrize(("workload", "technique", "interconnect"), CELLS)
def test_cells_match_the_window_path(monkeypatch, workload, technique, interconnect):
    base = dataclasses.replace(scaled_config(), interconnect=interconnect)
    config = cell_config(base, technique)
    assert_paths_agree(
        monkeypatch,
        lambda: System(config, get_benchmark(workload, scale=0.02), seed=1),
    )


def contender(rounds, cs_alu_ops):
    """Take LOCK by larx/stcx ``rounds`` times.  Each critical section
    opens with ``cs_alu_ops`` ALU ops, so the window is empty when the
    elided region's first op is fetched; after the release, a stretch
    of ALU ops longer than the window precedes two memory ops."""

    def prog(tid, config, rng):
        b = BlockBuilder()
        r = b.fresh()
        for i in range(rounds):
            spins = 0
            while True:
                for _ in range(min(spins, 3)):
                    b.alu(latency=4)
                b.larx(LOCK, pc=0x900)
                if (yield b.take()) != 0:
                    spins += 1
                    continue
                b.stcx(LOCK, tid + 1, pc=0x900, meta={"sle_fallback": ("cas",)})
                if (yield b.take()):
                    break
                spins += 1
            for k in range(cs_alu_ops):
                r = b.alu(b.fresh(), (r,) if k % 2 else (), latency=1 + k % 3)
            b.load(DATA + 8, b.fresh())
            b.store(DATA, tid * 16 + i + 1, sregs=(r,))
            b.sync()
            b.store(LOCK, 0)
            for k in range(config.core.rob_size + 5):
                r = b.alu(b.fresh(), (r,) if k % 3 else (), latency=1 + k % 2)
            b.store(PRIVATE + tid * 256 + i * 8, i + 1, sregs=(r,))
            b.load(PRIVATE + tid * 256 + 64, b.fresh())
            yield b.take()
        b.end()
        yield b.take()

    return prog


@pytest.mark.parametrize("checkpoint", [False, True], ids=["in-core", "checkpoint"])
@pytest.mark.parametrize("n_threads", [2, 4])
def test_contended_lock_matches_the_window_path(
    monkeypatch, tiny_config, n_threads, checkpoint
):
    config = dataclasses.replace(
        tiny_config.with_sle(enabled=True, checkpoint_mode=checkpoint),
        n_procs=n_threads,
    )
    workload = ScriptWorkload(*[contender(rounds=3, cs_alu_ops=4)] * n_threads)
    assert_paths_agree(monkeypatch, lambda: System(config, workload, seed=3))


def test_capacity_boundary_matches_the_window_path(monkeypatch, tiny_config):
    """A run of ALU ops fills the window's capacity until the next
    commit pass, as the window path's entries would.

    After a larx, fetch resumes with an empty window: ``k`` ALU ops, a
    store, ``fill`` ALU ops and a load, every one a miss.  Near
    ``k + fill + 2 == rob_size`` the window path admits the load after
    the commit pass that schedules the store's drain, so when both fall
    due in the same cycle the store reaches the bus first.  Taking the
    ALU ops without holding their capacity admitted the load first and
    changed the cycle count of 24 of these 140 programs.
    """
    config = dataclasses.replace(tiny_config, n_procs=1)
    rob = config.core.rob_size

    def program(k, fill, latency):
        def prog(tid, config, rng):
            b = BlockBuilder()
            b.larx(0x40000)
            yield b.take()
            for _ in range(k):
                b.alu(latency=latency)
            b.store(0x50000, 1)
            for _ in range(fill):
                b.alu(latency=1)
            b.load(0x60000, b.fresh())
            b.end()
            yield b.take()

        return prog

    # A run longer than the window fills it twice over.
    for k in [*range(rob - 6, rob + 1), *range(2 * rob - 6, 2 * rob + 1)]:
        for fill in range(5):
            for latency in (1, 2):
                workload = ScriptWorkload(program(k, fill, latency))
                assert_paths_agree(
                    monkeypatch, lambda: System(config, workload, seed=0)
                )


def test_program_ending_in_alu_ops_matches_the_window_path(monkeypatch, tiny_config):
    """With no END op, the core's finish time is its last commit time,
    which the run's last ALU op sets."""
    config = dataclasses.replace(tiny_config, n_procs=1)

    def prog(tid, config, rng):
        b = BlockBuilder()
        b.larx(0x40000)
        yield b.take()
        r = b.alu(b.fresh(), latency=3)
        for _ in range(40):
            r = b.alu(b.fresh(), (r,), latency=3)
        yield b.take()

    workload = ScriptWorkload(prog)
    assert_paths_agree(monkeypatch, lambda: System(config, workload, seed=0))
