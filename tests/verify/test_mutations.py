"""Seeded protocol bugs: the checker finds them, the replay confirms.

Mutation testing in both directions closes the loop on the abstraction:

* every seeded bug produces an abstract counterexample (the checker is
  not vacuous);
* replaying an SWMR counterexample on the *concrete* simulator trips
  the runtime :class:`~repro.coherence.validation.CoherenceChecker` at
  the same event with the same invariant (the abstraction matches the
  machine we actually simulate);
* clean traces replay cleanly with the model-predicted load values.
"""

import re

import pytest

from repro.common.config import InterconnectKind
from repro.verify.checker import ModelChecker
from repro.verify.model import AbstractMachine, ProtocolSpec, line_base
from repro.verify.mutations import SEEDED, inapplicable, mutate
from repro.verify.replay import ConcreteReplayer


def _wording(detail):
    """``detail`` with its line named by base address and word lists elided.

    The model's lines hold one word and are named ``line N``; the
    concrete replay's hold eight and are named by their base address.
    """
    detail = re.sub(
        r"\bline (\d+)", lambda m: f"{line_base(int(m[1])):#x}", detail
    )
    return re.sub(r"\[[^\]]*\]", "[...]", detail)


def checked(name, mutant, interconnect=InterconnectKind.BUS, **kw):
    logic = mutate(ProtocolSpec(name).make_logic(), mutant)
    machine = AbstractMachine(logic, n_nodes=3, interconnect=interconnect)
    return ModelChecker(machine, **kw).run()


@pytest.mark.parametrize("mutant", sorted(SEEDED))
def test_every_mutation_is_caught(mutant):
    result = checked("moesti", mutant)
    assert not result.ok
    v = result.violations[0]
    assert v.trace, "counterexample must carry a reproducing trace"
    assert len(v.trace) <= 4, "BFS should find a minimal trace"


@pytest.mark.parametrize(
    "interconnect",
    [InterconnectKind.BUS, InterconnectKind.DIRECTORY],
    ids=("bus", "directory"),
)
@pytest.mark.parametrize(
    "mutant", ["validate-installs-m", "fill-exclusive-on-shared-read"]
)
def test_swmr_counterexample_replays_identically(mutant, interconnect):
    """The abstract violation reproduces on the real system, same event."""
    spec = ProtocolSpec("moesti")
    result = checked("moesti", mutant, interconnect)
    v = result.violations[0]
    assert v.kind == "swmr"
    outcome = ConcreteReplayer(
        spec, interconnect=interconnect, mutate=mutant
    ).replay(v.trace)
    assert not outcome.ok
    # The concrete CoherenceChecker raises at the very event whose
    # abstract application violated SWMR, in the model's words.
    assert outcome.failed_at == len(v.trace) - 1
    assert "M/E owner" in outcome.error
    assert _wording(outcome.error) == _wording(v.detail)


def test_t_ignores_flush_caught_abstractly():
    # This bug corrupts the *saved* value of a T copy; the abstract
    # checker sees it against the last-globally-visible shadow.
    result = checked("moesti", "t-ignores-flush")
    assert result.violations[0].kind == "t-discipline"


def test_t_ignores_flush_unreachable_on_directory():
    """Why the bug is bus-only: on a directory the mutant is equivalent.

    It patches how a T copy answers a remote read, and a directory's
    home never sends a read to a T copy (a flushing read un-tracks the
    T-sharers instead).  The complete exploration is clean and never
    exercises the patched rows, which is why the coverage classifier's
    dead-row text is what rules the mutant out there.
    """
    pristine = ProtocolSpec("mesti").make_logic()
    assert inapplicable(pristine, "t-ignores-flush") is None
    why = inapplicable(
        pristine, "t-ignores-flush", InterconnectKind.DIRECTORY
    )
    assert "home never contacts T-sharers on reads" in why
    result = checked(
        "mesti", "t-ignores-flush", InterconnectKind.DIRECTORY
    )
    assert result.ok and result.complete
    exercised = {tuple(r["row"]) for r in result.coverage["exercised"]}
    unreachable = {
        tuple(r["row"]) for r in result.coverage["unreachable_ok"]
    }
    for label in ("Read", "Read+flush"):
        assert ("remote", "T", label) not in exercised
        assert ("remote", "T", label) in unreachable


@pytest.mark.parametrize("name", ["mesti", "moesti", "emesti"])
def test_t_ignores_flush_counterexample_replays_concretely(name):
    """Regression for the fuzz campaign's headline find.

    The runtime CoherenceChecker used to compare T copies only against
    each other, so a *lone* rotten T copy (exactly what this mutation
    produces with one sharer) replayed clean and the campaign flagged a
    replay-divergence.  The checker now holds every T copy to the last
    globally visible value.
    """
    spec = ProtocolSpec(name)
    result = checked(name, "t-ignores-flush")
    v = result.violations[0]
    assert v.kind == "t-discipline"
    outcome = ConcreteReplayer(
        spec, mutate="t-ignores-flush"
    ).replay(v.trace)
    assert not outcome.ok
    assert "globally visible" in outcome.error
    assert _wording(outcome.error) == _wording(v.detail)


def test_apply_mutation_leaves_argument_untouched():
    """Regression: the mutation must not leak into the caller's tables.

    The mutant builder once patched the passed instance in place; a
    fuzz loop that checked a mutant then reused the 'clean' logic
    inherited the bug.  The argument must keep pristine behavior after
    the call, decision for decision.
    """
    from repro.coherence.messages import SnoopResult, TxnKind
    from repro.coherence.states import LineState

    logic = ProtocolSpec("mesti").make_logic()
    pristine = ProtocolSpec("mesti").make_logic()
    mutated = mutate(logic, "fill-exclusive-on-shared-read")
    assert mutated is not logic

    shared = SnoopResult()
    shared.shared = True
    assert (logic.fill_state(TxnKind.READ, shared)
            is pristine.fill_state(TxnKind.READ, shared)
            is LineState.S)
    assert mutated.fill_state(TxnKind.READ, shared) is LineState.E

    mutated_v = mutate(logic, "validate-installs-m")
    assert (logic.revalidated_state()
            is pristine.revalidated_state())
    assert mutated_v.revalidated_state() is LineState.M


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        mutate(ProtocolSpec("mesi").make_logic(), "no-such-bug")


@pytest.mark.parametrize("mutant", ["t-ignores-flush", "validate-installs-m"])
def test_temporal_mutations_rejected_on_plain_protocols(mutant):
    logic = ProtocolSpec("moesi").make_logic()
    assert inapplicable(logic, mutant) == "MOESI has no T state"
    with pytest.raises(ValueError):
        mutate(logic, mutant)


@pytest.mark.parametrize(
    "descriptor, post",
    [
        (("remote-row", "T", "Read+flush", "T"), "T"),
        (("remote-row", "S", "ReadX", "M"), "M"),
    ],
    ids=("T-Read+flush", "S-ReadX"),
)
def test_remote_row_mutant_reports_its_forced_post(descriptor, post):
    """Coverage records the post-state the mutant forces.

    The mutant runs the real row and then overwrites the line's state;
    the observer must see the overwritten state, or a seeded bug's
    coverage would disagree with its own table.
    """
    result = checked("mesti", descriptor)
    assert not result.ok
    key = ["remote", descriptor[1], descriptor[2]]
    (entry,) = [
        e for e in result.coverage["exercised"] if e["row"] == key
    ]
    assert entry["post"] == [post]


@pytest.mark.parametrize(
    "interconnect",
    [InterconnectKind.BUS, InterconnectKind.DIRECTORY],
    ids=("bus", "directory"),
)
def test_clean_trace_replays_clean(interconnect):
    spec = ProtocolSpec("emesti")
    trace = (
        ("store", 0, 0, 0, 1),
        ("load", 1, 0, 0),
        ("evict", 0, 0),
        ("load", 2, 0, 0),
    )
    outcome = ConcreteReplayer(spec, interconnect=interconnect).replay(trace)
    assert outcome.ok, outcome.error
    assert outcome.loads == [1, 1]
    assert outcome.checks > 0
    assert outcome.divergences == []
