"""SLE restart and fallback behaviors under contention."""

import dataclasses

from repro.cpu.program import BlockBuilder
from repro.system.system import System
from tests.harness import ScriptWorkload

LOCK = 0x2000
SHARED = 0x2100


def contended_writer(tid, rounds=4):
    """Acquire LOCK, write a SHARED line (conflicting across threads)."""

    def prog(_tid, config, rng):
        b = BlockBuilder()
        for r in range(rounds):
            while True:
                b.larx(LOCK, pc=0x500)
                v = yield b.take()
                if v != 0:
                    b.alu(latency=4)
                    continue
                b.stcx(LOCK, tid + 1, pc=0x500, meta={"sle_fallback": ("cas",)})
                ok = yield b.take()
                if ok:
                    break
            b.store(SHARED + tid * 8, r + 1)  # same line: elisions conflict
            b.store(LOCK, 0)
            for _ in range(10):
                b.alu(latency=2)
        b.end()
        yield b.take()

    return prog


def run_contended(config, n=4, rounds=4, seed=17):
    progs = [contended_writer(t, rounds) for t in range(n)]
    cfg = dataclasses.replace(config.with_sle(enabled=True), n_procs=n)
    system = System(cfg, ScriptWorkload(*progs), seed=seed)
    system.run(max_cycles=50_000_000, max_events=20_000_000)
    return system


def total(system, name):
    return sum(
        system.stats.get(f"sle{i}.{name}") for i in range(len(system.cores))
    )


def test_conflicting_elisions_still_produce_exact_values(tiny4_config):
    system = run_contended(tiny4_config)
    data = None
    for ctrl in system.controllers:
        line = ctrl.lookup(SHARED)
        if line is not None and line.state.dirty:
            data = line.data
    data = data or system.memory.read_line(SHARED)
    assert data[:4] == [4, 4, 4, 4]  # every thread's last round landed


def test_restarts_bounded_by_limit(tiny4_config):
    cfg = tiny4_config.with_sle(restart_limit=1)
    system = run_contended(cfg)
    # Restarts happened but never exceeded the limit per episode:
    # every conflict beyond the limit fell back to real acquisition.
    assert total(system, "restarts") <= total(system, "failure.conflict")


def test_zero_restart_limit_goes_straight_to_fallback(tiny4_config):
    cfg = tiny4_config.with_sle(restart_limit=0)
    system = run_contended(cfg)
    if total(system, "failure.conflict"):
        assert total(system, "restarts") == 0
        assert total(system, "fallback_acquisitions") > 0


def test_fallback_acquisition_serializes_correctly(tiny4_config):
    """With conflicts every round, fallbacks must still hand the lock
    around without losing any updates."""
    cfg = tiny4_config.with_sle(restart_limit=0, conflict_decrement=0)
    # conflict_decrement=0 keeps confidence high: every round attempts
    # elision, conflicts, and falls back — maximum stress.
    system = run_contended(cfg, rounds=3)
    data = None
    for ctrl in system.controllers:
        line = ctrl.lookup(SHARED)
        if line is not None and line.state.dirty:
            data = line.data
    data = data or system.memory.read_line(SHARED)
    assert data[:4] == [3, 3, 3, 3]


def test_sle_stats_are_consistent(tiny4_config):
    system = run_contended(tiny4_config)
    attempts = total(system, "attempts")
    successes = total(system, "successes")
    fails = sum(
        total(system, f"failure.{r}")
        for r in ("no_release", "conflict", "serialize", "nested")
    )
    assert attempts > 0
    # Every attempt ends in success or >=1 failure event (restarts can
    # add extra failure events per attempt).
    assert successes <= attempts
    assert successes + fails >= attempts
