"""Differential execution: one workload, every protocol, same answer.

The data-value invariant says temporal-silence machinery is invisible
to software: for any program and any interleaving, the values loads
observe — and the memory image a final sweep of loads reads back —
must be identical whether the machine runs plain MESI, MESTI, or
E-MESTI.  :func:`concretize` walks one generated schedule through a
protocol's :class:`~repro.verify.model.AbstractMachine`; :func:`
run_differential` runs the same schedule on every protocol under test
and cross-checks three ways:

* **invariant violations** — the machine raised
  :class:`~repro.verify.model.ModelViolation` mid-walk;
* **data-value breaks** — the epilogue sweep (node 0 loads every
  (line, word) after the schedule) observed something other than the
  architectural shadow values;
* **differential divergences** — two protocols disagreed on any load
  value along the identical linearization.

Every finding is replayed through the concrete simulator
(:class:`~repro.verify.replay.ConcreteReplayer`) so the report carries
a real-machine witness, not just an abstract trace.

Two schedule properties make cross-protocol comparison sound.  First,
line *residency* (is a tag present?) is protocol-independent in the
abstract model — invalidations park lines in I/T rather than dropping
the tag, and only fills and evicts change presence, at identical
schedule points — so the evict-if-resident rule below skips the same
entries on every protocol.  Second, validate decisions are consumed
cyclically from a shared tuple *only when the executing protocol
detects a reversion*, so a protocol without temporal silence simply
consumes none; the decision stream itself is part of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence.protocol import DEFAULT_PROTOCOLS
from repro.common.config import InterconnectKind
from repro.verify.litmus import LitmusTest
from repro.verify.model import AbstractMachine, ModelViolation, ProtocolSpec
from repro.verify.mutations import Descriptor
from repro.verify.replay import ConcreteReplayer


@dataclass
class DifferentialRun:
    """One protocol's abstract walk of one schedule."""

    protocol: str
    trace: tuple = ()  # every applied event, epilogue included
    loads: tuple = ()  # program-load values, in schedule order
    epilogue: tuple = ()  # node-0 sweep values, (line, word) order
    arch: tuple = ()  # architectural shadow values at the end
    violation: dict | None = None  # {"kind", "detail", "trace"}

    @property
    def ok(self) -> bool:
        """True when the walk completed without a model violation."""
        return self.violation is None

    @property
    def observed(self) -> tuple:
        """Everything value-visible: program loads then the sweep."""
        return self.loads + self.epilogue


def concretize(
    spec: ProtocolSpec,
    test: LitmusTest,
    schedule: tuple,
    decisions: tuple,
    interconnect: InterconnectKind = InterconnectKind.BUS,
) -> DifferentialRun:
    """Walk ``schedule`` on ``spec``'s abstract machine.

    Schedule entries are ``("op", node)`` / ``("evict", node, line)``
    as produced by :func:`repro.fuzz.generator.make_schedule`; evicts
    of non-resident lines are skipped (identically on every protocol).
    After the schedule, node 0 loads every (line, word) — the
    data-value sweep the differential comparison keys on.
    """
    machine = AbstractMachine(
        spec.make_logic(),
        n_nodes=test.n_nodes,
        n_lines=test.n_lines,
        n_words=test.n_words,
        interconnect=interconnect,
    )
    run = DifferentialRun(protocol=spec.name)
    state = machine.initial()
    pcs = [0] * test.n_nodes
    trace: list = []
    loads: list = []
    decision_idx = 0

    def step(event):
        nonlocal state
        new_state, value = machine.apply(state, event)
        state = new_state
        trace.append(event)
        return value

    try:
        for entry in schedule:
            if entry[0] == "op":
                node = entry[1]
                op = test.programs[node][pcs[node]]
                pcs[node] += 1
                if op[0] == "load":
                    loads.append(step(("load", node, op[1], op[2])))
                    continue
                _, line, word, value = op
                if machine.store_detects_reversion(
                    state, node, line, word, value
                ):
                    decision = decisions[decision_idx % len(decisions)]
                    decision_idx += 1
                    step(("store", node, line, word, value, decision))
                else:
                    step(("store", node, line, word, value))
            else:
                _, node, line = entry
                if machine.node_line(state, node, line) is None:
                    continue  # non-resident: same skip on every protocol
                step(("evict", node, line))
        epilogue = []
        for line in range(test.n_lines):
            for word in range(test.n_words):
                epilogue.append(step(("load", 0, line, word)))
    except ModelViolation as exc:
        run.violation = {
            "kind": exc.kind,
            "detail": exc.detail,
            "trace": tuple(trace),
        }
        epilogue = []
    run.trace = tuple(trace)
    run.loads = tuple(loads)
    run.epilogue = tuple(epilogue)
    run.arch = state[2]
    return run


def replay_witness(
    protocol: str,
    n_nodes: int,
    trace: tuple,
    interconnect: InterconnectKind,
    mutant: Descriptor | None = None,
) -> dict:
    """Replay a trace on the real simulator for a concrete witness."""
    replayer = ConcreteReplayer(
        ProtocolSpec(protocol), n_nodes=n_nodes,
        interconnect=interconnect, mutate=mutant,
    )
    doc = replayer.replay(trace).to_json()
    doc["protocol"] = protocol
    return doc


@dataclass
class DifferentialResult:
    """All protocols' runs of one schedule, plus the cross-checks."""

    runs: list[DifferentialRun] = field(default_factory=list)
    findings: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every run agreed and nothing broke."""
        return not self.findings


def run_differential(
    test: LitmusTest,
    schedule: tuple,
    decisions: tuple,
    protocols: tuple[str, ...] = DEFAULT_PROTOCOLS,
    interconnect: InterconnectKind = InterconnectKind.BUS,
    replay_witnesses: bool = True,
) -> DifferentialResult:
    """Run one schedule on every protocol and cross-check the results.

    Findings are dicts with ``kind`` in ``invariant-violation`` /
    ``data-value`` / ``differential-divergence``; when
    ``replay_witnesses`` is set each carries a ``witness`` from the
    concrete simulator (the expensive replay only runs on findings).
    """
    result = DifferentialResult()
    for name in protocols:
        run = concretize(
            ProtocolSpec(name), test, schedule, decisions, interconnect
        )
        result.runs.append(run)
        if run.violation is not None:
            result.findings.append({
                "kind": "invariant-violation",
                "test": test.name,
                "protocol": name,
                "detail": f"{run.violation['kind']}: {run.violation['detail']}",
                "trace": run.violation["trace"],
                "witness": (
                    replay_witness(name, test.n_nodes, run.violation["trace"],
                                   interconnect)
                    if replay_witnesses else None
                ),
            })
            continue
        expected = tuple(
            run.arch[line][word]
            for line in range(test.n_lines)
            for word in range(test.n_words)
        )
        if run.epilogue != expected:
            result.findings.append({
                "kind": "data-value",
                "test": test.name,
                "protocol": name,
                "detail": (
                    f"epilogue sweep read {run.epilogue}, architectural "
                    f"values are {expected}"
                ),
                "trace": run.trace,
                "witness": (
                    replay_witness(name, test.n_nodes, run.trace, interconnect)
                    if replay_witnesses else None
                ),
            })

    clean = [r for r in result.runs if r.ok]
    if len(clean) > 1:
        reference = clean[0]
        for run in clean[1:]:
            if run.observed != reference.observed:
                result.findings.append({
                    "kind": "differential-divergence",
                    "test": test.name,
                    "protocol": run.protocol,
                    "detail": (
                        f"{run.protocol} observed {run.observed} but "
                        f"{reference.protocol} observed "
                        f"{reference.observed} on the same schedule"
                    ),
                    "trace": run.trace,
                    "witness": (
                        replay_witness(
                            run.protocol, test.n_nodes, run.trace, interconnect
                        )
                        if replay_witnesses else None
                    ),
                })
    return result
