"""Test harness: drive the memory system directly, without cores.

``MemHarness`` wires scheduler + memory + interconnect (the bus, or the
directory when ``config.interconnect`` says so) + one controller/node per
processor, and offers synchronous-looking load/store helpers that run
the event loop until the access completes.  ``FakeCore`` stands in for
the real core, recording LVP callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import InterconnectKind, MachineConfig, scaled_config
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.coherence.bus import SnoopBus
from repro.coherence.controller import CoherenceController
from repro.coherence.directory import DirectoryNetwork
from repro.memory.hierarchy import NodeMemory
from repro.memory.mainmem import MainMemory


@dataclass
class FakeOp:
    """Stands in for a WinOp as an LVP consumer."""

    seq: int
    value: int | None = None
    verified: bool = False
    squashed: bool = False


@dataclass
class FakeCore:
    """Records the callbacks NodeMemory makes into a core."""

    completions: list[tuple[FakeOp, int]] = field(default_factory=list)
    verified: list[FakeOp] = field(default_factory=list)
    mispredicted: list[FakeOp] = field(default_factory=list)

    def load_completed(self, op: FakeOp, value: int) -> None:
        op.value = value
        self.completions.append((op, value))

    def lvp_verified(self, op: FakeOp) -> None:
        op.verified = True
        self.verified.append(op)

    def lvp_mispredict(self, op: FakeOp) -> None:
        op.squashed = True
        self.mispredicted.append(op)


class ScriptWorkload:
    """Adapter: wrap per-thread generator functions as a workload.

    ``fns`` is one generator function per processor, each called as
    ``fn(tid, config, rng)`` and returning a program generator.
    """

    name = "script"
    cracking_ratio = 1.0

    def __init__(self, *fns):
        self._fns = fns

    def build_programs(self, config, rng):
        from repro.cpu.program import ThreadProgram

        return [
            ThreadProgram(fn(tid, config, rng.split(tid)), name=f"script[{tid}]")
            for tid, fn in enumerate(self._fns)
        ]


class MemHarness:
    """An N-node memory system without processor cores."""

    def __init__(self, config: MachineConfig | None = None, n_procs: int | None = None):
        self.config = config or scaled_config()
        if n_procs is not None:
            import dataclasses

            self.config = dataclasses.replace(self.config, n_procs=n_procs)
        self.config.validate()
        self.scheduler = Scheduler()
        self.stats = StatsRegistry()
        self.memory = MainMemory(self.config.line_size)
        bus_cls = (
            DirectoryNetwork
            if self.config.interconnect is InterconnectKind.DIRECTORY
            else SnoopBus
        )
        self.bus = bus_cls(
            self.scheduler, self.config.bus, self.memory, self.stats.scoped("bus")
        )
        self.controllers: list[CoherenceController] = []
        self.nodes: list[NodeMemory] = []
        self.cores: list[FakeCore] = []
        self._seq = 0
        for i in range(self.config.n_procs):
            ctrl = CoherenceController(
                i, self.config, self.bus, self.memory, self.stats.scoped(f"ctrl{i}")
            )
            node = NodeMemory(
                i, self.config, self.scheduler, ctrl, self.stats.scoped(f"node{i}")
            )
            core = FakeCore()
            node.core = core
            self.controllers.append(ctrl)
            self.nodes.append(node)
            self.cores.append(core)

    # -- event helpers ---------------------------------------------------

    def drain(self, max_events: int = 100_000) -> None:
        """Run all pending events."""
        count = 0
        while self.scheduler.step():
            count += 1
            assert count < max_events, "harness event storm"

    def new_op(self) -> FakeOp:
        self._seq += 1
        return FakeOp(seq=self._seq)

    # -- synchronous-style accessors --------------------------------------

    def load(self, proc: int, addr: int, reserve: bool = False, spec: bool = True):
        """Load and drain; returns (kind, value, op)."""
        op = self.new_op()
        kind, _lat, value = self.nodes[proc].load(
            addr, op, reserve=reserve, allow_spec=spec
        )
        if kind == "pending":
            self.drain()
            assert op.value is not None, "pending load never completed"
            return "miss", op.value, op
        if kind == "spec":
            op.value = value
            return "spec", value, op
        op.value = value
        return kind, value, op

    def store(self, proc: int, addr: int, value: int, pc: int = 0) -> None:
        """Store and drain to completion."""
        done = []
        latency = self.nodes[proc].store(addr, value, pc, lambda: done.append(True))
        if latency is None:
            self.drain()
            assert done, "pending store never completed"
        # Synchronous path: the write already happened.

    def stcx(self, proc: int, addr: int, value: int, pc: int = 0) -> bool:
        """Store-conditional and drain; returns success."""
        result: list[bool] = []
        latency = self.nodes[proc].stcx(addr, value, pc, result.append)
        if latency is None:
            self.drain()
        assert result, "stcx never resolved"
        return result[0]

    def line_state(self, proc: int, addr: int):
        from repro.common.addressing import line_address

        line = self.controllers[proc].lookup(line_address(addr, self.config.line_size))
        return line.state if line is not None else None
