"""Exhaustive explicit-state exploration with symmetry reduction.

A Murphi-style breadth-first search over the
:class:`~repro.verify.model.AbstractMachine` state graph.  Node
identities are symmetric (every node runs the same protocol over the
same lines), so states are stored under a *canonical key*: the minimum
over all node permutations of an orderable encoding of the state.
One sort of the nodes by their rows and directory roles reaches that
minimum without enumerating permutations, so no node count is refused.
This typically cuts the stored state count by close to ``n_nodes!``.

For each canonical key the checker keeps one concrete *witness* state
and the ``(parent key, event)`` edge that first reached it.  Because
expansion always continues from the witness, the parent chain is a
real executable run of the machine — walking it back yields a
counterexample trace whose node indices are consistent end-to-end and
which is shortest-in-steps by BFS construction.  Those traces feed the
concrete replay bridge (:mod:`repro.verify.replay`) unchanged.

Checked before exploring: :func:`~repro.verify.table.audit_table`, the
static judgement of the probed table.  Its findings land in the
result's ``coverage["audit"]``; a probe that crashed stops the run
there, since exploring would only crash on the same row.
Checked per state: :func:`check_state`, which judges each line with
:func:`~repro.coherence.validation.line_violation` (the invariants the
runtime checker also holds), plus deadlock (no enabled event).
Checked per event: the validate-discipline and table-hole
(``ProtocolError``) violations the machine raises while applying it.
Transition coverage is recorded via the
:class:`~repro.coherence.protocol.ProtocolLogic` observer hook for the
whole exploration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.coherence.protocol import ProtocolLogic
from repro.coherence.validation import line_violation
from repro.common.config import InterconnectKind
from repro.verify.model import AbstractMachine, Event, ModelViolation
from repro.verify.table import TransitionCoverage, audit_table, coverage_report


@dataclass(frozen=True)
class Violation:
    """One invariant failure with its shortest reproducing trace."""

    kind: str
    detail: str
    trace: tuple[Event, ...]
    depth: int

    def describe(self) -> str:
        """Multi-line human-readable rendering with the trace."""
        lines = [f"{self.kind}: {self.detail}",
                 f"counterexample ({len(self.trace)} events):"]
        for i, ev in enumerate(self.trace, 1):
            lines.append(f"  {i:2d}. {format_event(ev)}")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Outcome of one exhaustive (or bounded) exploration."""

    protocol: str
    interconnect: str
    n_nodes: int
    states: int = 0
    transitions: int = 0
    depth: int = 0
    complete: bool = True
    violations: list[Violation] = field(default_factory=list)
    coverage: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no violation was found."""
        return not self.violations

    def to_json(self) -> dict:
        """JSON-serializable form (the CLI's --format json payload)."""
        return {
            "protocol": self.protocol,
            "interconnect": self.interconnect,
            "nodes": self.n_nodes,
            "states": self.states,
            "transitions": self.transitions,
            "depth": self.depth,
            "complete": self.complete,
            "ok": self.ok,
            "violations": [
                {
                    "kind": v.kind,
                    "detail": v.detail,
                    "depth": v.depth,
                    "trace": [list(ev) for ev in v.trace],
                }
                for v in self.violations
            ],
            "coverage": self.coverage,
        }


def format_event(event: Event) -> str:
    """Human-readable rendering of one abstract event tuple."""
    kind = event[0]
    if kind == "load":
        return f"P{event[1]}: load  line {event[2]} word {event[3]}"
    if kind == "store":
        decision = f"  [{event[5]}]" if len(event) > 5 else ""
        return (f"P{event[1]}: store line {event[2]} word {event[3]} "
                f"<- {event[4]}{decision}")
    if kind == "evict":
        return f"P{event[1]}: evict line {event[2]}"
    return repr(event)


def check_state(machine, state) -> tuple[str, str] | None:
    """The first invariant ``state`` breaks, as ``(kind, detail)``, or None."""
    nodes, mem, arch, gvis, dirs = state
    for line in range(machine.n_lines):
        copies = [
            (i, row[line][0], row[line][1])
            for i, row in enumerate(nodes) if row[line] is not None
        ]
        bad = line_violation(
            f"line {line}", copies, mem[line], arch[line], gvis[line],
            None if dirs is None else dirs[line][2],
        )
        if bad is not None:
            return bad
    return None


def _encode_nl(nl) -> tuple:
    """Orderable encoding of one node-line tuple."""
    if nl is None:
        return (-1,)
    st, data, vis, div = nl
    return (st.index, data, vis if vis is not None else (-1,), int(div))


class ModelChecker:
    """BFS over the abstract machine with node-permutation reduction."""

    def __init__(self, machine: AbstractMachine,
                 max_states: int | None = None,
                 max_depth: int | None = None,
                 symmetry: bool = True):
        self.machine = machine
        self.max_states = max_states
        self.max_depth = max_depth
        self.symmetry = symmetry

    # -- canonicalization ------------------------------------------------

    def _canonical(self, state) -> tuple:
        # The key compares the node rows, then each directory entry's
        # owner, sharer tuple and T-sharer tuple in turn.  Each of those
        # is smallest when the nodes holding that role come first among
        # the nodes still tied, so one sort by (row, roles) lands on the
        # minimum over all node permutations.  A bus state has no
        # entries: its order is the plain row sort.
        nodes, mem, arch, gvis, dirs = state
        rows = [tuple(_encode_nl(nl) for nl in row) for row in nodes]
        dirs = dirs or ()
        order = range(len(rows))
        if self.symmetry:
            order = sorted(order, key=lambda i: (rows[i], [
                (i != d[0], i not in d[1], i not in d[2]) for d in dirs
            ]))
        label = {old: new for new, old in enumerate(order)}
        enc_dirs = tuple(
            (
                -1 if d[0] is None else label[d[0]],
                tuple(sorted(label[s] for s in d[1])),
                tuple(sorted(label[s] for s in d[2])),
            )
            for d in dirs
        )
        return ((tuple(rows[i] for i in order), enc_dirs), mem, arch, gvis)

    # -- exploration -----------------------------------------------------

    def run(self) -> CheckResult:
        """Audit the table, then explore every reachable state.

        Exploration stops at the first violation.
        """
        machine = self.machine
        protocol: ProtocolLogic = machine.protocol
        directory = machine.interconnect is InterconnectKind.DIRECTORY
        result = CheckResult(
            protocol=protocol.name,
            interconnect="directory" if directory else "bus",
            n_nodes=machine.n_nodes,
        )
        audit = audit_table(protocol, directory)
        if any(finding["kind"] == "crash" for finding in audit):
            result.complete = False
            result.coverage = {"audit": audit}
            return result
        coverage = TransitionCoverage()
        saved_observer = protocol.observer
        protocol.observer = coverage.record
        try:
            self._explore(result, coverage)
        finally:
            protocol.observer = saved_observer
        result.coverage = coverage_report(protocol, coverage, directory)
        result.coverage["audit"] = audit
        return result

    def _explore(self, result: CheckResult, coverage: TransitionCoverage):
        machine = self.machine
        init = machine.initial()
        init_key = self._canonical(init)
        # canonical key -> (witness concrete state, depth);
        # parent edge: canonical key -> (parent key, event)
        witness: dict[tuple, tuple] = {init_key: init}
        depth_of: dict[tuple, int] = {init_key: 0}
        parent: dict[tuple, tuple] = {}
        queue = deque([init_key])

        bad = check_state(machine, init)
        if bad is not None:  # pragma: no cover - initial state is trivially fine
            result.violations.append(Violation(*bad, (), 0))
            return

        while queue:
            key = queue.popleft()
            state = witness[key]
            depth = depth_of[key]
            result.depth = max(result.depth, depth)
            if self.max_depth is not None and depth >= self.max_depth:
                result.complete = False
                continue
            enabled = 0
            for event in machine.events(state):
                enabled += 1
                try:
                    nxt, _ = machine.apply(state, event)
                except ModelViolation as exc:
                    trace = self._trace(parent, key) + (event,)
                    result.violations.append(
                        Violation(exc.kind, exc.detail, trace, depth + 1)
                    )
                    result.states = len(witness)
                    return
                if nxt == state:
                    continue
                result.transitions += 1
                nkey = self._canonical(nxt)
                if nkey in witness:
                    continue
                witness[nkey] = nxt
                depth_of[nkey] = depth + 1
                parent[nkey] = (key, event)
                bad = check_state(machine, nxt)
                if bad is not None:
                    trace = self._trace(parent, nkey)
                    result.violations.append(
                        Violation(*bad, trace, depth + 1)
                    )
                    result.states = len(witness)
                    return
                queue.append(nkey)
                if (self.max_states is not None
                        and len(witness) >= self.max_states):
                    result.states = len(witness)
                    result.complete = False
                    return
            if enabled == 0:  # pragma: no cover - stores are always enabled
                trace = self._trace(parent, key)
                result.violations.append(
                    Violation("deadlock", "state has no enabled event",
                              trace, depth)
                )
                result.states = len(witness)
                return
        result.states = len(witness)

    @staticmethod
    def _trace(parent: dict, key: tuple) -> tuple[Event, ...]:
        events = []
        while key in parent:
            key, event = parent[key]
            events.append(event)
        return tuple(reversed(events))
