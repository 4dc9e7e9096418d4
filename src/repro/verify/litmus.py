"""Litmus tests: tiny concurrent programs with allowed-outcome sets.

Each test is a set of per-node straight-line programs plus the exact
set of outcomes (tuples of load results) that coherent sequential
execution permits.  The runner enumerates *every* interleaving of the
programs — and both validate-policy decisions wherever a store detects
temporal silence — on the abstract machine, then asserts the observed
outcome set **equals** the allowed set:

* an extra outcome means the protocol is broken (it exhibits a
  forbidden result, e.g. reading a reverted lock as still held);
* a missing outcome means the model lost behaviors (over-restrictive
  abstraction), which would silently weaken every other check.

The temporal-silence protocols must produce exactly the same outcome
sets as MESI/MOESI on every test: T-state machinery is a performance
feature and must be architecturally invisible.  Each outcome keeps a
witness trace, replayable on the concrete system via
:mod:`repro.verify.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import InterconnectKind
from repro.verify.model import (
    AbstractMachine,
    Event,
    ModelViolation,
    ProtocolSpec,
)
from repro.verify.table import TransitionCoverage

# Program ops: ("load", line, word) | ("store", line, word, value)
Op = tuple


@dataclass(frozen=True)
class LitmusTest:
    """One named litmus test."""

    name: str
    description: str
    programs: tuple[tuple[Op, ...], ...]
    # Loads whose results form the outcome tuple, as (node, op_index).
    observed: tuple[tuple[int, int], ...]
    allowed: frozenset
    n_lines: int = 1
    n_words: int = 1

    @property
    def n_nodes(self) -> int:
        """Number of participating nodes (one per program)."""
        return len(self.programs)


LITMUS_TESTS = (
    LitmusTest(
        name="message-passing",
        description=(
            "P0 writes data then sets a flag; P1 reads the flag then the "
            "data.  Seeing the flag set guarantees seeing the data."
        ),
        programs=(
            (("store", 0, 0, 1), ("store", 1, 0, 1)),
            (("load", 1, 0), ("load", 0, 0)),
        ),
        observed=((1, 0), (1, 1)),  # (flag, data)
        allowed=frozenset({(0, 0), (0, 1), (1, 1)}),
        n_lines=2,
    ),
    LitmusTest(
        name="lock-handoff-revert",
        description=(
            "P0 acquires a lock (1), releases it back to free (0) — a "
            "temporally silent revert — then sets a flag; P1 reads the "
            "flag then the lock.  Seeing the flag set must imply seeing "
            "the lock free: a validate may only re-install the reverted "
            "value, never the transient held value."
        ),
        programs=(
            (("store", 0, 0, 1), ("store", 0, 0, 0), ("store", 1, 0, 1)),
            (("load", 1, 0), ("load", 0, 0)),
        ),
        observed=((1, 0), (1, 1)),  # (flag, lock)
        allowed=frozenset({(0, 0), (0, 1), (1, 0)}),
        n_lines=2,
    ),
    LitmusTest(
        name="false-sharing",
        description=(
            "P0 and P1 write different words of the same line, then each "
            "reads the other's word.  Coherence serializes whole-line "
            "ownership, so at least one node must see the other's write "
            "(both-miss (0, 0) is forbidden)."
        ),
        programs=(
            (("store", 0, 0, 1), ("load", 0, 1)),
            (("store", 0, 1, 1), ("load", 0, 0)),
        ),
        observed=((0, 1), (1, 1)),  # (P0 reads w1, P1 reads w0)
        allowed=frozenset({(0, 1), (1, 0), (1, 1)}),
        n_words=2,
    ),
)


@dataclass
class LitmusResult:
    """Observed outcomes of one test on one protocol/interconnect."""

    test: LitmusTest
    protocol: str
    interconnect: str
    outcomes: dict = field(default_factory=dict)  # outcome -> witness trace

    @property
    def forbidden(self) -> set:
        """Outcomes observed but not allowed (a broken protocol)."""
        return set(self.outcomes) - self.test.allowed

    @property
    def unreached(self) -> set:
        """Allowed outcomes never observed (an over-restrictive model)."""
        return self.test.allowed - set(self.outcomes)

    @property
    def ok(self) -> bool:
        """True when observed outcomes equal the allowed set exactly."""
        return not self.forbidden and not self.unreached

    def to_json(self) -> dict:
        """JSON-serializable form for the CLI/CI output."""
        return {
            "test": self.test.name,
            "protocol": self.protocol,
            "interconnect": self.interconnect,
            "ok": self.ok,
            "observed": sorted(list(o) for o in self.outcomes),
            "allowed": sorted(list(o) for o in self.test.allowed),
            "forbidden": sorted(list(o) for o in self.forbidden),
            "unreached": sorted(list(o) for o in self.unreached),
        }


@dataclass
class OracleResult:
    """One exhaustive enumeration of a test on one protocol."""

    protocol: str
    interconnect: str
    outcomes: dict = field(default_factory=dict)  # outcome -> witness trace
    complete: bool = True
    states: int = 0
    violation: dict | None = None  # {"kind", "detail", "trace"}
    coverage: TransitionCoverage = field(default_factory=TransitionCoverage)

    @property
    def ok(self) -> bool:
        """True when no invariant broke during enumeration."""
        return self.violation is None


def enumerate_outcomes(
    spec: ProtocolSpec,
    test: LitmusTest,
    interconnect: InterconnectKind = InterconnectKind.BUS,
    max_states: int | None = None,
) -> OracleResult:
    """Enumerate every interleaving of ``test`` on ``spec``'s machine.

    A depth-first search over ``(state, pcs, loads)`` that forks both
    validate decisions wherever a store detects temporal silence.  It
    records transition coverage, catches a :class:`ModelViolation` with
    its trace, keeps the shortest witness per outcome, and stops after
    ``max_states`` visited keys (``None``: unbounded).
    """
    machine = AbstractMachine(
        spec.make_logic(),
        n_nodes=test.n_nodes,
        n_lines=test.n_lines,
        n_words=test.n_words,
        interconnect=interconnect,
    )
    result = OracleResult(
        protocol=machine.protocol.name,
        interconnect=(
            "directory"
            if interconnect is InterconnectKind.DIRECTORY
            else "bus"
        ),
    )
    machine.protocol.observer = result.coverage.record
    stack = [(machine.initial(), (0,) * test.n_nodes, (), ())]
    seen = set()
    while stack:
        state, pcs, loads, trace = stack.pop()
        key = (state, pcs, loads)
        if key in seen:
            continue
        seen.add(key)
        if max_states is not None and len(seen) >= max_states:
            result.complete = False
            break
        if all(pc >= len(p) for pc, p in zip(pcs, test.programs)):
            values = dict(loads)
            outcome = tuple(values[at] for at in test.observed)
            best = result.outcomes.get(outcome)
            if best is None or len(trace) < len(best):
                result.outcomes[outcome] = trace
            continue
        for node, program in enumerate(test.programs):
            pc = pcs[node]
            if pc >= len(program):
                continue
            op = program[pc]
            next_pcs = pcs[:node] + (pc + 1,) + pcs[node + 1:]
            if op[0] == "load":
                events: tuple[Event, ...] = (("load", node, *op[1:]),)
            elif machine.store_detects_reversion(state, node, *op[1:]):
                events = tuple(("store", node, *op[1:], decision)
                               for decision in ("validate", "quiet"))
            else:
                events = (("store", node, *op[1:]),)
            for event in events:
                try:
                    nxt, read = machine.apply(state, event)
                except ModelViolation as exc:
                    result.violation = {"kind": exc.kind,
                                        "detail": exc.detail,
                                        "trace": trace + (event,)}
                    result.states = len(seen)
                    return result
                nxt_loads = (loads + (((node, pc), read),)
                             if op[0] == "load" else loads)
                stack.append((nxt, next_pcs, nxt_loads, trace + (event,)))
    result.states = len(seen)
    return result


class LitmusRunner:
    """Exhaustively interleaves litmus programs on the abstract machine."""

    def __init__(self, spec: ProtocolSpec,
                 interconnect: InterconnectKind = InterconnectKind.BUS):
        self.spec = spec
        self.interconnect = interconnect

    def run_test(self, test: LitmusTest) -> LitmusResult:
        """Enumerate every interleaving of one test's programs."""
        found = enumerate_outcomes(self.spec, test, self.interconnect)
        if found.violation is not None:
            raise ModelViolation(found.violation["kind"],
                                 found.violation["detail"])
        return LitmusResult(test=test, protocol=found.protocol,
                            interconnect=found.interconnect,
                            outcomes=found.outcomes)

    def run_all(self, tests=LITMUS_TESTS) -> list[LitmusResult]:
        """Run the whole suite (or a custom test list)."""
        return [self.run_test(t) for t in tests]
