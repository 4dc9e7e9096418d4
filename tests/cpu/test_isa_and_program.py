"""Micro-op ISA and the thread-program/block-builder layer."""

import pytest

from repro.common.errors import SimulationError
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.program import BlockBuilder, ThreadProgram


class TestBlockBuilder:
    def test_fresh_registers_unique(self):
        b = BlockBuilder()
        regs = {b.fresh() for _ in range(10)}
        assert len(regs) == 10

    def test_build_sequence(self):
        b = BlockBuilder()
        r = b.fresh()
        b.load(0x100, r)
        b.alu(b.fresh(), (r,), latency=3)
        b.store(0x108, 5)
        block = b.take()
        assert [op.kind for op in block] == [OpKind.LOAD, OpKind.ALU, OpKind.STORE]
        assert block[1].sregs == (r,)
        assert block[1].latency == 3
        assert b.pending == 0

    def test_register_free_alu_op_is_shared_per_latency(self):
        b = BlockBuilder()
        b.alu(latency=4)
        b.alu(latency=4)
        b.alu(latency=2)
        b.alu(b.fresh(), latency=4)
        b.alu(latency=4, pc=9)
        ops = b.take()
        assert ops[0] is ops[1]
        assert ops[2] is not ops[0] and ops[2].latency == 2
        assert all(op is not ops[0] for op in ops[3:])
        assert (ops[3].dreg, ops[4].pc) == (1, 9)
        b.alu(latency=4)
        assert b.take()[0] is ops[0]

    def test_take_empty_rejected(self):
        with pytest.raises(SimulationError):
            BlockBuilder().take()

    def test_control_ops(self):
        b = BlockBuilder()
        b.larx(0x40, pc=7)
        block = b.take()
        assert block[0].control and block[0].kind is OpKind.LARX
        b.stcx(0x40, 1, pc=7, meta={"sle_fallback": ("cas",)})
        block = b.take()
        assert block[0].meta["sle_fallback"] == ("cas",)

    def test_isync_unsafe_flag(self):
        b = BlockBuilder()
        b.isync(unsafe_ctx=True)
        assert b.take()[0].unsafe_ctx


class TestThreadProgram:
    def test_yields_blocks_and_receives_values(self):
        received = []

        def gen():
            b = BlockBuilder()
            b.larx(0x40)
            value = yield b.take()
            received.append(value)
            b.end()
            yield b.take()

        prog = ThreadProgram(gen())
        first = prog.next_block(None)
        assert first[0].kind is OpKind.LARX
        second = prog.next_block(123)
        assert received == [123]
        assert second[0].kind is OpKind.END
        assert prog.next_block(None) is None
        assert prog.finished

    def test_empty_block_rejected(self):
        def gen():
            yield []

        with pytest.raises(SimulationError):
            ThreadProgram(gen()).next_block(None)

    def test_control_must_be_last(self):
        def gen():
            yield [
                MicroOp(OpKind.LOAD, addr=0, control=True),
                MicroOp(OpKind.ALU),
            ]

        with pytest.raises(SimulationError, match="last op"):
            ThreadProgram(gen()).next_block(None)

    def test_finished_program_returns_none_forever(self):
        def gen():
            yield [MicroOp(OpKind.END)]

        prog = ThreadProgram(gen())
        prog.next_block(None)
        assert prog.next_block(None) is None
        assert prog.next_block(None) is None
