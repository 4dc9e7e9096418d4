"""Micro-op ISA.

A deliberately small PowerPC-flavored micro-op set: plain ALU ops with
register dependencies (timing only — values never drive them), loads
and stores with concrete addresses and values, ``larx``/``stcx``
(load-linked / store-conditional, the synchronization primitive whose
idiom SLE detects), ``isync`` (the context-serializing barrier AIX
locks use, §4.2.2), ``sync`` (memory barrier, drains the store
buffer), and ``end``.

Control-relevant results (lock values, stcx success) flow back to the
thread program only for ops marked ``control=True``, and only at
commit — the restriction that makes speculation timing-only (DESIGN.md
§5.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpKind(enum.Enum):
    """Micro-op type."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    LARX = "larx"
    STCX = "stcx"
    ISYNC = "isync"
    SYNC = "sync"
    END = "end"


@dataclass(slots=True)
class MicroOp:
    """One micro-operation as emitted by a thread program.

    Slotted: the core reads these fields several times per op.
    Instances are shared between blocks and threads (the register-free
    ALU op of each latency, the serial ALU chains), so nothing writes a
    field after construction; per-execution state lives in the core's
    ``WinOp``.
    """

    kind: OpKind
    addr: int | None = None
    value: int | None = None  # store/stcx data
    dreg: int | None = None
    sregs: tuple[int, ...] = ()
    latency: int = 1  # ALU execution latency
    control: bool = False  # result delivered to the program at commit
    pc: int = 0  # static instruction id (predictors index on this)
    unsafe_ctx: bool = False  # isync: touches non-renamed context state
    meta: dict = field(default_factory=dict)  # e.g. SLE fallback recipe

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        addr = f" @{self.addr:#x}" if self.addr is not None else ""
        return f"MicroOp({self.kind.value}{addr} pc={self.pc})"


Block = list  # a basic block: list[MicroOp], straight-line by construction
