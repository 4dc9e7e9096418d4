"""Concrete-replay bridge: abstract traces on the real memory system.

A counterexample from the model checker (or a litmus interleaving) is
a sequence of abstract events.  This module re-executes such a trace
on the *actual* simulator components — real
:class:`~repro.coherence.controller.CoherenceController` +
:class:`~repro.memory.hierarchy.NodeMemory` per node over a real
:class:`~repro.coherence.bus.SnoopBus` or
:class:`~repro.coherence.directory.DirectoryNetwork` — with the
runtime :class:`~repro.coherence.validation.CoherenceChecker`
attached.  Cores are replaced by a record-only sink (a core would
impose its own program order; the trace *is* the order), and the
scheduler is drained to quiescence after every event so the replay
serializes exactly like the atomic-grant abstraction.

The point of the bridge is closing the loop in both directions:

* a counterexample found on a seeded protocol mutation must make the
  concrete system fail too (same invariant, same event) — evidence
  the abstraction models the machine we actually simulate;
* a clean abstract trace must replay cleanly, with every load
  observing the same value the model predicted.

Validate-policy decisions recorded in the trace (``validate`` /
``quiet`` store events) are enforced by a scripted policy object, so
any policy the real system supports can be replayed deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addressing import WORD_SIZE
from repro.common.config import InterconnectKind, MachineConfig, scaled_config
from repro.common.errors import ProtocolError, SimulationError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.coherence.bus import SnoopBus
from repro.coherence.controller import CoherenceController
from repro.coherence.directory import DirectoryNetwork
from repro.coherence.policies import ValidatePolicyBase
from repro.coherence.protocol import PROTOCOLS
from repro.coherence.validation import CoherenceChecker
from repro.memory.hierarchy import NodeMemory
from repro.memory.mainmem import MainMemory
from repro.verify.model import Event, ProtocolSpec, line_base
from repro.verify import mutations


class _SinkCore:
    """Stands in for a Core: records async load completions."""

    def __init__(self):
        self.completions: dict[object, int] = {}

    def load_completed(self, winop, value: int) -> None:
        """Record an asynchronous load completion."""
        self.completions[winop] = value

    # LVP resolution hooks (never fire: LVP stays disabled in replays).
    def lvp_verified(self, winop) -> None:  # pragma: no cover - defensive
        """No-op; LVP is disabled in replays."""
        pass

    def lvp_mispredict(self, winop, value) -> None:  # pragma: no cover
        """No-op; LVP is disabled in replays."""
        pass


class _ScriptedPolicy(ValidatePolicyBase):
    """Replays recorded validate decisions; flags unscripted queries."""

    def __init__(self):
        self.next_decision: bool | None = None
        self.unscripted = 0
        self.unconsumed = 0

    def arm(self, decision: bool | None) -> None:
        """Queue the decision for the next validate query."""
        if self.next_decision is not None:
            self.unconsumed += 1
        self.next_decision = decision

    def should_validate(self, line, span=None) -> bool:
        """Answer with the armed decision; count unscripted queries."""
        decision = self.next_decision
        self.next_decision = None
        if decision is None:
            # The abstract model did not predict a temporal-silence
            # detection here: divergence worth reporting, but answer
            # False so the replay can continue and surface more.
            self.unscripted += 1
            return False
        return decision


@dataclass
class ReplayOutcome:
    """Result of replaying one abstract trace concretely."""

    ok: bool
    error: str | None = None
    failed_at: int | None = None  # index of the event that raised
    loads: list[int] = field(default_factory=list)
    checks: int = 0
    divergences: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        """JSON-serializable form for the CLI/CI output."""
        return {
            "ok": self.ok,
            "error": self.error,
            "failed_at": self.failed_at,
            "loads": self.loads,
            "checks": self.checks,
            "divergences": self.divergences,
        }


class ConcreteReplayer:
    """Drives real coherence components event-by-event, checker attached."""

    def __init__(
        self,
        spec: ProtocolSpec,
        n_nodes: int = 3,
        interconnect: InterconnectKind = InterconnectKind.BUS,
        mutate: mutations.Descriptor | str | None = None,
        config: MachineConfig | None = None,
    ):
        if config is None:
            config = scaled_config(n_procs=n_nodes)
        config = config.with_protocol(
            **PROTOCOLS[spec.name], squash_silent_stores=False,
        )
        config = MachineConfig(
            n_procs=n_nodes, core=config.core, l1=config.l1, l2=config.l2,
            bus=config.bus, protocol=config.protocol, lvp=config.lvp,
            sle=config.sle, interconnect=interconnect,
        )
        config.validate()
        self.config = config
        self.scheduler = Scheduler()
        self.stats = StatsRegistry()
        self.memory = MainMemory(config.line_size)
        bus_cls = (
            DirectoryNetwork
            if interconnect is InterconnectKind.DIRECTORY
            else SnoopBus
        )
        self.bus = bus_cls(
            self.scheduler, config.bus, self.memory, self.stats.scoped("bus")
        )
        self.controllers: list[CoherenceController] = []
        self.nodes: list[NodeMemory] = []
        self.cores: list[_SinkCore] = []
        self.policies: list[_ScriptedPolicy] = []
        for i in range(n_nodes):
            ctrl = CoherenceController(
                i, config, self.bus, self.memory, self.stats.scoped(f"ctrl{i}")
            )
            if mutate is not None:
                # A mutant is a fresh copy — swap it in; the
                # controller's original logic is never touched.
                ctrl.protocol = mutations.mutate(ctrl.protocol, mutate)
            policy = _ScriptedPolicy()
            ctrl.policy = policy
            node = NodeMemory(
                i, config, self.scheduler, ctrl, self.stats.scoped(f"node{i}")
            )
            core = _SinkCore()
            node.core = core
            self.controllers.append(ctrl)
            self.nodes.append(node)
            self.cores.append(core)
            self.policies.append(policy)
        self.checker = CoherenceChecker(self)

    # ------------------------------------------------------------------

    def _drain(self) -> None:
        self.scheduler.run()

    def apply(self, event: Event) -> int | None:
        """Apply one abstract event and drain; returns a load's value."""
        kind, node = event[0], event[1]
        nm = self.nodes[node]
        if kind == "load":
            addr = line_base(event[2]) + event[3] * WORD_SIZE
            token = object()
            status, _latency, value = nm.load(addr, token, allow_spec=False)
            self._drain()
            if status == "pending":
                value = self.cores[node].completions.pop(token)
            return value
        if kind == "store":
            addr = line_base(event[2]) + event[3] * WORD_SIZE
            decision = event[5] if len(event) > 5 else None
            self.policies[node].arm(
                None if decision is None else (decision == "validate")
            )
            done = {"fired": False}
            latency = nm.store(
                addr, event[4], pc=0,
                on_done=lambda: done.__setitem__("fired", True),
            )
            self._drain()
            if latency is None and not done["fired"]:
                raise SimulationError(f"store {event!r} never completed")
            return None
        if kind == "evict":
            self.controllers[node].evict_line(line_base(event[2]))
            self._drain()
            return None
        raise ValueError(f"unknown event {event!r}")

    def replay(self, trace) -> ReplayOutcome:
        """Replay a whole trace; never raises for protocol failures."""
        outcome = ReplayOutcome(ok=True)
        for i, event in enumerate(trace):
            try:
                value = self.apply(event)
            except ProtocolError as exc:
                outcome.ok = False
                outcome.error = str(exc)
                outcome.failed_at = i
                break
            if value is not None:
                outcome.loads.append(value)
        else:
            # End-of-run sweep over every resident line.
            try:
                self.checker.check_all()
            except ProtocolError as exc:
                outcome.ok = False
                outcome.error = f"end-of-run sweep: {exc}"
        outcome.checks = self.checker.checks
        for i, policy in enumerate(self.policies):
            if policy.next_decision is not None:
                policy.unconsumed += 1
                policy.next_decision = None
            if policy.unscripted:
                outcome.divergences.append(
                    f"P{i}: {policy.unscripted} unscripted validate decisions"
                )
            if policy.unconsumed:
                outcome.divergences.append(
                    f"P{i}: {policy.unconsumed} scripted decisions never consumed"
                )
        if outcome.divergences and outcome.ok:
            outcome.ok = False
            outcome.error = "abstract/concrete divergence: " + "; ".join(
                outcome.divergences
            )
        return outcome
