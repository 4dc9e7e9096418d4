#!/usr/bin/env python
"""Step-by-step walkthrough of the MESTI/E-MESTI state machines.

Drives two coherence controllers directly (no processor cores) through
the canonical temporal-silence episode of the paper's Figure 2/3, and
prints every state the lock line passes through on both nodes.

Usage:  python examples/protocol_walkthrough.py
"""

from repro.common.config import ProtocolKind, ValidatePolicy, scaled_config
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.coherence.bus import SnoopBus
from repro.coherence.controller import CoherenceController
from repro.memory.hierarchy import NodeMemory
from repro.memory.mainmem import MainMemory

LOCK = 0x4000


class _NullCore:
    def load_completed(self, op, value):
        op.value = value

    def lvp_verified(self, op):
        pass

    def lvp_mispredict(self, op):
        pass


class Walkthrough:
    def __init__(self, enhanced: bool):
        cfg = scaled_config().with_protocol(
            kind=ProtocolKind.MOESTI,
            enhanced=enhanced,
            validate_policy=(
                ValidatePolicy.PREDICTOR if enhanced else ValidatePolicy.ALWAYS
            ),
        )
        self.scheduler = Scheduler()
        stats = StatsRegistry()
        memory = MainMemory(cfg.line_size)
        bus = SnoopBus(self.scheduler, cfg.bus, memory, stats.scoped("bus"))
        self.nodes = []
        for i in range(2):
            ctrl = CoherenceController(i, cfg, bus, memory, stats.scoped(f"c{i}"))
            node = NodeMemory(i, cfg, self.scheduler, ctrl, stats.scoped(f"n{i}"))
            node.core = _NullCore()
            self.nodes.append(node)
        self._seq = 0

    def states(self):
        out = []
        for node in self.nodes:
            line = node.ctrl.lookup(LOCK)
            out.append(line.state.value if line is not None else "-")
        return out

    def step(self, label, action):
        action()
        self.scheduler.run()
        p0, p1 = self.states()
        print(f"  {label:<44s} P0={p0:<3s} P1={p1}")

    def load(self, proc):
        op = type("Op", (), {"seq": 0, "value": None, "dead": False})()
        self.nodes[proc].load(LOCK, op, allow_spec=False)

    def store(self, proc, value):
        self.nodes[proc].store(LOCK, value, 0, lambda: None)


def walk(enhanced: bool) -> None:
    name = "Enhanced MESTI (Figure 3)" if enhanced else "MESTI (Figure 2)"
    print(f"{name}:")
    w = Walkthrough(enhanced)
    w.step("P0 reads the lock (cold)", lambda: w.load(0))
    w.step("P1 reads the lock (shares it)", lambda: w.load(1))
    w.step("P0 acquires: store 1 (P1 saves value in T)", lambda: w.store(0, 1))
    w.step("P0 releases: store 0 (temporal silence!)", lambda: w.store(0, 0))
    if enhanced:
        w.step("(predictor trained) repeat: store 1", lambda: w.store(0, 1))
        w.step("repeat: store 0 -> validate", lambda: w.store(0, 0))
        w.step("P1 touches the line (VS demotes to S)", lambda: w.load(1))
    else:
        w.step("P1 re-reads: HIT, no communication miss", lambda: w.load(1))
    print()


def main() -> None:
    walk(enhanced=False)
    walk(enhanced=True)
    print("T = temporally invalid (stale value saved);")
    print("VS = Validate_Shared (withholds the shared response until touched).")


if __name__ == "__main__":
    main()
