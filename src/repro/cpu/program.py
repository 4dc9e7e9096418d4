"""Thread programs and the block-builder DSL.

A thread program is a Python generator that yields basic blocks
(lists of :class:`~repro.cpu.isa.MicroOp`) and receives, at each
``yield``, the committed result of the previous block's *control* op
(or None if the block had none).  Control ops must be the last op of
their block — the program cannot observe a value mid-block — and
critical sections are straight-line blocks, which is what makes SLE
replay after an abort exact (DESIGN.md §5.4).
"""

from __future__ import annotations

from typing import Generator, Iterable

from repro.common.errors import SimulationError
from repro.cpu.isa import MicroOp, OpKind

ProgramGen = Generator[list, "int | None", None]

#: The register-free ALU op of each latency, shared by every block.
_FREE_ALU: dict[int, MicroOp] = {}
#: :meth:`BlockBuilder.alu_chain`'s serial chain of each latency, grown
#: on demand.
_CHAINS: dict[int, list[MicroOp]] = {}


class ThreadProgram:
    """Wraps a program generator with validation and end-of-stream handling."""

    def __init__(self, gen: ProgramGen, name: str = "thread"):
        self._gen = gen
        self.name = name
        self._started = False
        self._finished = False

    @property
    def finished(self) -> bool:
        """True once the generator is exhausted."""
        return self._finished

    def next_block(self, control_value: int | None = None) -> list[MicroOp] | None:
        """Advance the program; returns the next block or None at the end."""
        if self._finished:
            return None
        try:
            if not self._started:
                self._started = True
                block = next(self._gen)
            else:
                block = self._gen.send(control_value)
        except StopIteration:
            self._finished = True
            return None
        self._validate(block)
        return block

    @staticmethod
    def _validate(block: list[MicroOp]) -> None:
        if not block:
            raise SimulationError("program yielded an empty block")
        for i, op in enumerate(block):
            if op.control and i != len(block) - 1:
                raise SimulationError(
                    "control op must be the last op of its block "
                    f"(op {i} of {len(block)})"
                )


class BlockBuilder:
    """Convenience builder for basic blocks.

    Registers are per-thread virtual tags; ``fresh()`` hands out unique
    positive ones (the shared chains of :meth:`alu_chain` use negative
    ones).  The builder is reusable: ``take()`` returns the accumulated
    block and resets.
    """

    def __init__(self, pc_base: int = 0):
        self._ops: list[MicroOp] = []
        self._next_reg = 1
        self.pc_base = pc_base

    def fresh(self) -> int:
        """Allocate a fresh virtual register tag."""
        reg = self._next_reg
        self._next_reg += 1
        return reg

    @property
    def pending(self) -> int:
        """Number of ops accumulated since the last :meth:`take`."""
        return len(self._ops)

    def alu(
        self, dreg: int | None = None, sregs: Iterable[int] = (), latency: int = 1,
        pc: int = 0,
    ) -> int | None:
        """Append an ALU op; returns its destination register.

        A register-free op at pc 0 (filler work: lock backoff, flag
        pulses) is one shared instance per latency, built on first use.
        """
        if dreg is None and sregs == () and not pc:
            op = _FREE_ALU.get(latency)
            if op is None:
                op = _FREE_ALU[latency] = MicroOp(OpKind.ALU, latency=latency)
            self._ops.append(op)
            return None
        self._ops.append(
            MicroOp(OpKind.ALU, dreg=dreg, sregs=tuple(sregs), latency=latency, pc=pc)
        )
        return dreg

    def alu_chain(self, n_ops: int, latency: int) -> None:
        """Append a serial chain of ``n_ops`` ALU ops (at least one).

        The ops are a prefix of one shared chain per latency.  Op ``k``
        writes tag ``-(k + 1)`` and reads ``-k``, the tag its
        predecessor wrote just before it; ``fresh()`` never hands out a
        negative tag, so no other op reads or writes one.
        """
        n_ops = max(n_ops, 1)
        chain = _CHAINS.setdefault(latency, [])
        while len(chain) < n_ops:
            k = len(chain)
            chain.append(MicroOp(
                OpKind.ALU, dreg=-(k + 1), sregs=(-k,) if k else (), latency=latency,
            ))
        self._ops.extend(chain[:n_ops])

    def load(
        self, addr: int, dreg: int | None = None, pc: int = 0,
        sregs: Iterable[int] = (),
    ) -> int | None:
        """Append a load; ``sregs`` model an address dependence (the
        load cannot issue until its producers complete — pointer
        chasing), which is what gives LVP's early value delivery its
        memory-level-parallelism benefit (§3)."""
        self._ops.append(
            MicroOp(OpKind.LOAD, addr=addr, dreg=dreg, sregs=tuple(sregs), pc=pc)
        )
        return dreg

    def load_ctl(self, addr: int, pc: int = 0) -> None:
        """A load whose value the program consumes (ends the block)."""
        self._ops.append(MicroOp(OpKind.LOAD, addr=addr, control=True, pc=pc))

    def store(self, addr: int, value: int, pc: int = 0, sregs: Iterable[int] = ()) -> None:
        """Append a store of ``value`` to ``addr``."""
        self._ops.append(
            MicroOp(OpKind.STORE, addr=addr, value=value, sregs=tuple(sregs), pc=pc)
        )

    def larx(self, addr: int, pc: int = 0) -> None:
        """Load-linked: control op, sets the reservation."""
        self._ops.append(MicroOp(OpKind.LARX, addr=addr, control=True, pc=pc))

    def stcx(self, addr: int, value: int, pc: int = 0, meta: dict | None = None) -> None:
        """Store-conditional: control op (program needs success/failure)."""
        self._ops.append(
            MicroOp(
                OpKind.STCX, addr=addr, value=value, control=True, pc=pc,
                meta=meta or {},
            )
        )

    def isync(self, unsafe_ctx: bool = False, pc: int = 0) -> None:
        """Append a context-serializing isync."""
        self._ops.append(MicroOp(OpKind.ISYNC, unsafe_ctx=unsafe_ctx, pc=pc))

    def sync(self, pc: int = 0) -> None:
        """Append a lightweight memory fence (lwsync)."""
        self._ops.append(MicroOp(OpKind.SYNC, pc=pc))

    def end(self) -> None:
        """Append the program-terminating END op."""
        self._ops.append(MicroOp(OpKind.END))

    def take(self) -> list[MicroOp]:
        """Return the accumulated block and reset the builder."""
        block, self._ops = self._ops, []
        if not block:
            raise SimulationError("take() on an empty block")
        return block
