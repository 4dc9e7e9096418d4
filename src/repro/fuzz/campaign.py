"""The budgeted, coverage-guided fuzzing campaign loop.

One campaign interleaves two iteration kinds under a single budget:

* **generated** iterations (3 of every 4) build a random litmus test,
  derive its allowed-outcome set from the reference-protocol
  enumeration (:mod:`repro.fuzz.oracle`), enumerate every protocol
  under test against it, and run one random schedule differentially
  (:mod:`repro.fuzz.differential`);
* **mutation** iterations (every 4th) build a protocol mutant
  (:mod:`repro.verify.mutations`) — walking the hand-seeded plan
  first, then sampling the descriptor grammar with
  :func:`random_descriptor` — and require the bounded model checker
  to flag it.

Coverage feedback: every iteration reports the transition-table rows
it exercised, namespaced per protocol; an iteration that reaches rows
no earlier iteration reached earns a corpus entry (its seed index,
mutation descriptor, and schedule), and later generated tests splice
from that corpus.  Failing generated tests are shrunk to 1-minimal
counterexamples (:mod:`repro.fuzz.minimize`), and every finding is
replayed on the concrete simulator for a witness.

Determinism contract: each iteration derives its own RNG stream from
``(campaign seed, iteration index)`` and reads only the corpus
*snapshot* taken at the start of its round (rounds are
:data:`ROUND_SIZE` iterations, merged in index order).  A campaign is
therefore a pure function of ``(seed, budget, options)`` — byte-equal
reports whether it runs serially or on a worker pool, which the test
suite asserts.  Nothing here reads the clock.

:func:`run_fuzz_cell` is the service entry point: the module-level,
picklable function a :class:`~repro.service.workers.WorkerShard` pool
executes for a ``kind="fuzz"`` job cell.  It always runs serially —
it already lives inside a pool worker process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.coherence.messages import SnoopResult, TxnKind
from repro.coherence.protocol import DEFAULT_PROTOCOLS
from repro.coherence.states import LineState
from repro.common.config import InterconnectKind
from repro.common.rng import SplitRng
from repro.experiments.runner import exit_with_parent
from repro.fuzz.differential import replay_witness, run_differential
from repro.fuzz.generator import generate_test, make_schedule
from repro.fuzz.minimize import minimize_test
from repro.fuzz.oracle import (
    DEFAULT_MAX_STATES,
    REFERENCE_PROTOCOL,
    derive_allowed,
)
from repro.verify.checker import ModelChecker
from repro.verify.litmus import enumerate_outcomes
from repro.verify.model import AbstractMachine, ProtocolSpec
from repro.verify.mutations import (
    TEMPORAL_SHAPES,
    Descriptor,
    inapplicable,
    mutate,
    mutation_record,
    seeded_plan,
)

#: Every ``MUTATION_STRIDE``-th iteration checks a protocol mutant.
MUTATION_STRIDE = 4

#: Iterations per batch-synchronous round (one corpus snapshot each).
ROUND_SIZE = 8

#: Visited-state bound for mutation-iteration model checks.  Seeded
#: mutations have counterexamples within a handful of BFS levels, so a
#: bounded run still catches them while keeping iterations cheap.
MUTATION_MAX_STATES = 4000


@dataclass(frozen=True)
class FuzzOptions:
    """Campaign parameters; hashable and picklable for pool workers."""

    seed: int = 0
    budget: int = 200
    protocols: tuple[str, ...] = DEFAULT_PROTOCOLS
    interconnect: str = "bus"
    workers: int = 0
    oracle_max_states: int = DEFAULT_MAX_STATES
    mutation_max_states: int = MUTATION_MAX_STATES
    replay_witnesses: bool = True
    minimize: bool = True


def _interconnect(options: FuzzOptions) -> InterconnectKind:
    return (
        InterconnectKind.DIRECTORY
        if options.interconnect == "directory"
        else InterconnectKind.BUS
    )


def _rows(protocol: str, keys) -> set[str]:
    """Namespace transition-table row keys per protocol."""
    return {f"{protocol}:{side}:{pre}:{event}" for side, pre, event in keys}


def _trace_json(trace) -> list:
    return [list(event) for event in trace]


# ----------------------------------------------------------------------
# One iteration (module-level: runs in pool workers)
# ----------------------------------------------------------------------


def random_descriptor(
    rng: SplitRng, spec: ProtocolSpec, interconnect: InterconnectKind
) -> Descriptor:
    """Sample one random mutant descriptor valid for ``spec``.

    Samples are steered away from trivially equivalent mutants: the
    pristine table is probed first and the mutated outcome is always a
    *different* state letter, and a remote row that is illegal, or dead
    on ``interconnect`` (:func:`~repro.verify.mutations.inapplicable`),
    is redrawn.  Equivalent mutants still exist, so a random mutant the
    bounded checker does not flag is evidence, not a finding.
    """
    logic = spec.make_logic()
    letters = [s.value for s in logic.states()]
    shapes = ["fill-state", "remote-row"]
    if logic.has_temporal:
        shapes += TEMPORAL_SHAPES
    shape = rng.choice(tuple(shapes))
    if shape == "fill-state":
        txn = rng.choice((TxnKind.READ, TxnKind.READX))
        result = SnoopResult()
        result.shared = rng.choice((True, False))
        probe = logic.fill_state(txn, result)
        post = rng.choice(tuple(x for x in letters if x != probe.value))
        return ("fill-state", txn.value, probe.value, post)
    if shape == "post-validate":
        current = logic.post_validate_state().value
        return ("post-validate",
                rng.choice(tuple(x for x in letters if x != current)))
    if shape == "revalidated":
        current = logic.revalidated_state().value
        return ("revalidated",
                rng.choice(tuple(x for x in letters if x != current)))
    if shape == "writes-back-flip":
        return ("writes-back-flip",)
    # remote-row: probe a random live row, force a different outcome.
    labels = logic.remote_event_labels()
    for _ in range(16):
        pre = rng.choice(tuple(letters))
        label = rng.choice(tuple(labels))
        post = logic.probe_remote(LineState(pre), label)
        if post == "illegal":
            continue
        forced = rng.choice(tuple(x for x in letters if x != post))
        descriptor = ("remote-row", pre, label, forced)
        if inapplicable(logic, descriptor, interconnect) is None:
            return descriptor
    # Every sampled row was illegal or dead (vanishingly unlikely): fall
    # back to a row every protocol reaches on both interconnects, a
    # dirty owner flushing to a remote ReadX.
    return ("remote-row", "M", "ReadX+flush", "M")


def _mutation_iteration(options: FuzzOptions, index: int,
                        rng: SplitRng) -> dict:
    """Check one protocol mutant with the bounded model checker."""
    interconnect = _interconnect(options)
    plan = seeded_plan(interconnect)
    plan_index = index // MUTATION_STRIDE
    if plan_index < len(plan):
        proto_name, descriptor = plan[plan_index]
    else:
        proto_name = rng.choice(tuple(options.protocols))
        descriptor = random_descriptor(
            rng.split("descriptor"), ProtocolSpec(proto_name), interconnect
        )
    logic = mutate(ProtocolSpec(proto_name).make_logic(), descriptor)
    machine = AbstractMachine(logic, n_nodes=3, interconnect=interconnect)
    result = ModelChecker(
        machine, max_states=options.mutation_max_states
    ).run()
    record = {
        "descriptor": list(descriptor),
        **mutation_record(descriptor, proto_name, result),
    }
    detected = record["detected"]
    findings: list[dict] = []
    if record["seeded"] and not detected:
        findings.append({
            "kind": "mutation-escape",
            "test": None,
            "protocol": proto_name,
            "detail": (
                f"seeded mutation {descriptor[1]!r} escaped the bounded "
                f"checker ({result.states} states explored)"
            ),
            "mutation": record["name"],
            "trace": [],
            "witness": None,
        })
    if record["seeded"] and detected and options.replay_witnesses:
        # Close the loop: the abstract counterexample must fail on the
        # concrete simulator carrying the same mutation.
        trace = result.violations[0].trace
        witness = replay_witness(
            proto_name, machine.n_nodes, trace, interconnect, mutant=descriptor,
        )
        record["witness"] = witness
        if witness["ok"]:
            findings.append({
                "kind": "replay-divergence",
                "test": None,
                "protocol": proto_name,
                "detail": (
                    f"abstract checker caught {descriptor[1]!r} as "
                    f"{record['caught_as']} but the concrete replay of "
                    f"its counterexample passed"
                ),
                "mutation": record["name"],
                "trace": _trace_json(trace),
                "witness": witness,
            })
    rows = _rows(
        proto_name,
        (tuple(e["row"]) for e in result.coverage.get("exercised", ())),
    )
    entry = {
        "iteration": index,
        "seed": options.seed,
        "mutation": list(descriptor),
        "protocol": proto_name,
    }
    return {
        "index": index,
        "kind": "mutation",
        "rows": sorted(rows),
        "findings": findings,
        "record": record,
        "entry": entry,
    }


def _oracle_finding(options, spec, test, allowed, result, reference,
                    interconnect) -> dict | None:
    """Cross-check one protocol's enumeration against the oracle."""
    if result.violation is not None:
        return {
            "kind": "invariant-violation",
            "test": test.name,
            "protocol": spec.name,
            "detail": (
                f"{result.violation['kind']}: "
                f"{result.violation['detail']}"
            ),
            "trace": result.violation["trace"],
            "witness": None,
        }
    if not (result.complete and reference.complete):
        return None  # bounded enumeration: outcome sets not comparable
    outcomes = frozenset(result.outcomes)
    if outcomes == allowed:
        return None
    extra = sorted(outcomes - allowed)
    missing = sorted(allowed - outcomes)
    witness_trace = result.outcomes[extra[0]] if extra else ()
    return {
        "kind": "oracle-divergence",
        "test": test.name,
        "protocol": spec.name,
        "detail": (
            f"outcomes diverge from the {REFERENCE_PROTOCOL} reference: "
            f"extra={extra} missing={missing}"
        ),
        "trace": witness_trace,
        "witness": None,
    }


def _shrink(options, spec, test, finding, interconnect):
    """Minimize an enumeration finding's test; refresh its trace."""
    kind = finding["kind"]

    def reproduces(candidate) -> bool:
        allowed, reference = derive_allowed(
            candidate, interconnect, options.oracle_max_states
        )
        res = enumerate_outcomes(
            spec, candidate, interconnect, options.oracle_max_states
        )
        if kind == "invariant-violation":
            return (
                res.violation is not None
                and res.violation["kind"] in finding["detail"]
            )
        return (
            res.violation is None
            and res.complete and reference.complete
            and frozenset(res.outcomes) != allowed
        )

    minimized, attempts = minimize_test(test, reproduces)
    if minimized is test:
        return test, {"attempts": attempts, "removed_ops": 0}
    before = sum(len(p) for p in test.programs)
    after = sum(len(p) for p in minimized.programs)
    return minimized, {"attempts": attempts, "removed_ops": before - after}


def _generated_iteration(options: FuzzOptions, index: int, rng: SplitRng,
                         corpus: tuple) -> dict:
    """Generate, oracle-check, and differentially run one test."""
    interconnect = _interconnect(options)
    test = generate_test(rng.split("test"), index, corpus)
    allowed, reference = derive_allowed(
        test, interconnect, options.oracle_max_states
    )
    rows = _rows(REFERENCE_PROTOCOL, reference.coverage.rows)
    findings: list[dict] = []
    for name in options.protocols:
        spec = ProtocolSpec(name)
        result = (
            reference if name == REFERENCE_PROTOCOL
            else enumerate_outcomes(
                spec, test, interconnect, options.oracle_max_states
            )
        )
        rows |= _rows(name, result.coverage.rows)
        finding = _oracle_finding(
            options, spec, test, allowed, result, reference, interconnect
        )
        if finding is None:
            continue
        shrunk = test
        if options.minimize:
            shrunk, stats = _shrink(
                options, spec, test, finding, interconnect
            )
            finding["minimized"] = dict(
                stats,
                programs=[
                    [list(op) for op in p] for p in shrunk.programs
                ],
            )
            if shrunk is not test:
                refreshed = enumerate_outcomes(
                    spec, shrunk, interconnect, options.oracle_max_states
                )
                if finding["kind"] == "invariant-violation":
                    if refreshed.violation is not None:
                        finding["trace"] = refreshed.violation["trace"]
                else:
                    shrunk_allowed, _ = derive_allowed(
                        shrunk, interconnect, options.oracle_max_states
                    )
                    extra = sorted(
                        frozenset(refreshed.outcomes) - shrunk_allowed
                    )
                    if extra:
                        finding["trace"] = refreshed.outcomes[extra[0]]
        if options.replay_witnesses and finding["trace"]:
            finding["witness"] = replay_witness(
                name, shrunk.n_nodes, finding["trace"], interconnect
            )
        finding["trace"] = _trace_json(finding["trace"])
        findings.append(finding)

    schedule, decisions = make_schedule(rng.split("schedule"), test)
    diff = run_differential(
        test, schedule, decisions, tuple(options.protocols),
        interconnect, options.replay_witnesses,
    )
    for finding in diff.findings:
        finding["trace"] = _trace_json(finding["trace"])
        findings.append(finding)

    entry = {
        "iteration": index,
        "seed": options.seed,
        "test": test.name,
        "programs": [[list(op) for op in p] for p in test.programs],
        "n_lines": test.n_lines,
        "n_words": test.n_words,
        "schedule": [list(e) for e in schedule],
        "decisions": list(decisions),
        "mutation": None,
    }
    return {
        "index": index,
        "kind": "generated",
        "rows": sorted(rows),
        "findings": findings,
        "record": None,
        "entry": entry,
    }


def run_iteration(options: FuzzOptions, index: int, corpus: tuple) -> dict:
    """Run iteration ``index`` against a corpus snapshot.

    Module-level and picklable: the campaign maps this over a process
    pool when ``options.workers > 0``.  The iteration's RNG stream
    depends only on ``(options.seed, index)``, never on which worker
    runs it.
    """
    rng = SplitRng(options.seed).split(f"iter/{index}")
    if index % MUTATION_STRIDE == MUTATION_STRIDE - 1:
        return _mutation_iteration(options, index, rng)
    return _generated_iteration(options, index, rng, corpus)


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything one campaign produced, JSON-ready."""

    options: FuzzOptions
    covered: set = field(default_factory=set)
    corpus: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    mutations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the campaign surfaced no finding of any kind."""
        return not self.findings

    def to_json(self) -> dict:
        """The report document (also the service's result payload)."""
        seeded = [m for m in self.mutations if m["seeded"]]
        return {
            "fuzz": True,
            "seed": self.options.seed,
            "budget": self.options.budget,
            "protocols": list(self.options.protocols),
            "interconnect": self.options.interconnect,
            "ok": self.ok,
            "rows_covered": len(self.covered),
            "corpus_size": len(self.corpus),
            "corpus": self.corpus,
            "findings": self.findings,
            "mutations": {
                "attempted": len(self.mutations),
                "detected": sum(
                    1 for m in self.mutations if m["detected"]
                ),
                "seeded_total": len(seeded_plan(
                    _interconnect(self.options)
                )),
                "seeded_detected": sorted(
                    m["descriptor"][1] for m in seeded if m["detected"]
                ),
                "records": self.mutations,
            },
        }


def run_campaign(options: FuzzOptions) -> FuzzReport:
    """Run one campaign to its budget; deterministic per options."""
    report = FuzzReport(options=options)
    executor = (
        ProcessPoolExecutor(
            max_workers=options.workers, initializer=exit_with_parent,
        )
        if options.workers > 0 else None
    )
    try:
        index = 0
        while index < options.budget:
            batch = range(
                index, min(index + ROUND_SIZE, options.budget)
            )
            snapshot = tuple(
                e for e in report.corpus if e.get("programs")
            )
            if executor is not None:
                results = list(executor.map(
                    run_iteration,
                    (options for _ in batch),
                    batch,
                    (snapshot for _ in batch),
                ))
            else:
                results = [
                    run_iteration(options, i, snapshot) for i in batch
                ]
            # Merge strictly in index order: corpus admission (and
            # therefore later rounds' generation) must not depend on
            # worker scheduling.
            for res in results:
                rows = set(res["rows"])
                new = rows - report.covered
                report.covered |= rows
                if new:
                    entry = dict(res["entry"])
                    entry["new_rows"] = sorted(new)
                    report.corpus.append(entry)
                report.findings.extend(res["findings"])
                if res["record"] is not None:
                    report.mutations.append(res["record"])
            index += len(batch)
    finally:
        if executor is not None:
            executor.shutdown()
    return report


def run_fuzz_cell(
    seed: int,
    budget: int,
    protocols: tuple[str, ...],
    interconnect: str,
) -> dict:
    """Service entry point: one fuzz cell, executed in a pool worker.

    Runs the campaign serially (the caller already provides process
    parallelism — one cell per seed) and returns the JSON report.
    """
    options = FuzzOptions(
        seed=seed,
        budget=budget,
        protocols=tuple(protocols),
        interconnect=interconnect,
        workers=0,
    )
    return run_campaign(options).to_json()
