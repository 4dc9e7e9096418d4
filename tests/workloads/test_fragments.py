"""Workload fragments: op-stream shape of each sharing archetype."""

import pytest

from repro.common.rng import SplitRng
from repro.cpu.isa import OpKind
from repro.cpu.program import BlockBuilder
from repro.workloads.fragments import (
    compute_chain,
    conservative_cs,
    dependent_walk,
    false_share_update,
    kernel_section,
    migratory_update,
    private_work,
    read_shared,
    stream_walk,
    ts_flag_pulse,
)
from repro.workloads.regions import Region


@pytest.fixture
def b():
    return BlockBuilder()


@pytest.fixture
def rng():
    return SplitRng("frag-test")


REGION = Region("r", 0x10000, 16)


def drain(gen, answers=None):
    """Drive a fragment, answering control ops from ``answers``."""
    answers = list(answers or [])
    ops = []
    value = None
    try:
        block = gen.send(None)
        while True:
            ops.extend(block)
            value = answers.pop(0) if (block and block[-1].control) else None
            block = gen.send(value)
    except StopIteration:
        return ops


def test_private_work_mix(b, rng):
    ops = drain(private_work(b, rng, REGION, 40, us_prob=1.0))
    kinds = [op.kind for op in ops]
    assert OpKind.LOAD in kinds and OpKind.STORE in kinds and OpKind.ALU in kinds
    # us_prob=1: every store is followed by its silent duplicate.
    stores = [op for op in ops if op.kind is OpKind.STORE]
    assert len(stores) % 2 == 0
    for first, second in zip(stores[::2], stores[1::2]):
        assert first.addr == second.addr and first.value == second.value


def test_private_work_stays_in_region(b, rng):
    ops = drain(private_work(b, rng, REGION, 60))
    for op in ops:
        if op.addr is not None:
            assert REGION.base <= op.addr < REGION.end


def test_stream_walk_line_stride_and_cursor(b, rng):
    state = {}
    ops1 = drain(stream_walk(b, state, REGION, 8, write_frac=0.0, rng=rng))
    bases1 = [op.addr & ~63 for op in ops1 if op.addr is not None]
    assert len(set(bases1)) == 8  # one new line per access
    ops2 = drain(stream_walk(b, state, REGION, 4, write_frac=0.0, rng=rng))
    bases2 = [op.addr & ~63 for op in ops2 if op.addr is not None]
    assert bases2[0] != bases1[0]  # cursor persisted


def test_ts_flag_pulse_is_reverting_pair(b):
    ops = drain(ts_flag_pulse(b, REGION.word(0, 0), work_ops=3, busy_value=5))
    stores = [op for op in ops if op.kind is OpKind.STORE]
    assert [s.value for s in stores] == [5, 0]
    assert stores[0].addr == stores[1].addr


def test_false_share_writes_only_own_word(b, rng):
    ops = drain(false_share_update(b, rng, REGION, tid=2, n_ops=6))
    for op in ops:
        if op.kind is OpKind.STORE:
            assert (op.addr & 63) // 8 == 2


def test_dependent_walk_chains_addresses(b, rng):
    ops = drain(dependent_walk(b, rng, [(REGION, 0), (REGION, None), (REGION, None)]))
    loads = [op for op in ops if op.kind is OpKind.LOAD]
    assert len(loads) == 3
    assert loads[0].sregs == ()
    assert loads[1].sregs == (loads[0].dreg,)
    assert loads[2].sregs == (loads[1].dreg,)


def test_compute_chain_is_serial(b):
    ops = drain(compute_chain(b, 10, latency=4))
    alus = [op for op in ops if op.kind is OpKind.ALU]
    assert len(alus) == 10
    for prev, cur in zip(alus, alus[1:]):
        assert cur.sregs == (prev.dreg,)
        assert cur.latency == 4


def test_compute_chain_is_a_prefix_of_one_shared_chain(b):
    """Chains of one latency share their ops; the tags are negative, so
    the builder's fresh registers are untouched."""
    short = drain(compute_chain(b, 3, latency=5))
    long = drain(compute_chain(BlockBuilder(), 8, latency=5))
    assert all(x is y for x, y in zip(short, long))
    assert [op.dreg for op in long] == [-k for k in range(1, 9)]
    assert long[0].sregs == ()
    other = drain(compute_chain(b, 3, latency=6))
    assert not any(x is y for x, y in zip(short, other))
    assert len(drain(compute_chain(b, 0, latency=7))) == 1
    assert b.fresh() == 1


def test_migratory_update_is_locked_rmw(b, rng):
    lock = 0x9000
    ops = drain(
        migratory_update(b, rng, lock, REGION, tid=1, pc=0x50, n_words=2),
        answers=[0, 1],  # larx sees free, stcx succeeds
    )
    kinds = [op.kind for op in ops]
    assert kinds.count(OpKind.LARX) == 1
    assert kinds.count(OpKind.STCX) == 1
    # Release restores the free value.
    release = [op for op in ops if op.kind is OpKind.STORE and op.addr == lock]
    assert release and release[-1].value == 0
    # CS is straight-line: no control ops between stcx and release.
    stcx_i = kinds.index(OpKind.STCX)
    for op in ops[stcx_i + 1:]:
        assert not op.control


def test_conservative_cs_touches_own_slab_only(b, rng):
    slabs = Region("slabs", 0x20000, 16)
    ops = drain(
        conservative_cs(b, rng, 0x9000, slabs, tid=1, n_threads=4, pc=0x60, n_ops=8),
        answers=[0, 1],
    )
    lines_per_thread = slabs.lines // 4
    for op in ops:
        if op.addr is not None and slabs.base <= op.addr < slabs.end:
            line_index = (op.addr - slabs.base) // 64
            assert lines_per_thread <= line_index < 2 * lines_per_thread


def test_kernel_section_carries_isync_and_shared_pc(b, rng):
    from repro.workloads.locks import KERNEL_LOCK_PC

    ops = drain(
        kernel_section(b, rng, 0x9000, REGION, KERNEL_LOCK_PC, tid=0),
        answers=[0, 1],
    )
    kinds = [op.kind for op in ops]
    assert OpKind.ISYNC in kinds
    larx = next(op for op in ops if op.kind is OpKind.LARX)
    assert larx.pc == KERNEL_LOCK_PC


def test_read_shared_only_loads(b, rng):
    ops = drain(read_shared(b, rng, REGION, 5))
    assert all(op.kind is OpKind.LOAD for op in ops)
