"""Protocol mutants: one table decision, deliberately wrong.

A mutant is a *descriptor*, a plain tuple (picklable, hashable,
reportable):

* ``("fill-state", txn, pre, post)`` — requester fills install
  ``post`` instead of ``pre`` for transaction kind ``txn``;
* ``("post-validate", letter)`` — the validating owner retires to
  ``letter``;
* ``("revalidated", letter)`` — remote T copies re-install as
  ``letter`` on a validate;
* ``("writes-back-flip",)`` — invert whether a validate updates memory;
* ``("remote-row", pre, label, post)`` — force one row of the remote
  snoop table to land in ``post``;
* ``("seeded", name)``, or the bare ``name`` — a bug in :data:`SEEDED`.

The seeded bugs sit in the decisions the temporal protocols add
(§2.2).  The model checker must catch each, and replaying its
counterexample on the concrete system must trip the runtime
:class:`~repro.coherence.validation.CoherenceChecker` at the same
event.  :func:`mutate` builds every mutant on a fresh copy of the
protocol logic, so no mutant leaks into a later clean run, and
:func:`inapplicable` derives where a mutant can run.
"""

from __future__ import annotations

from repro.coherence.messages import TxnKind
from repro.coherence.protocol import ProtocolLogic, make_protocol
from repro.coherence.states import LineState
from repro.common.config import InterconnectKind
from repro.verify.model import ProtocolSpec
from repro.verify.table import expected_rows

#: Descriptor tuple — see the module docstring for the grammar.
Descriptor = tuple

#: The hand-seeded bugs, by name.
SEEDED: dict[str, Descriptor] = {
    # Read fills install E even when the shared line was asserted:
    # breaks SWMR as soon as a read misses on a line someone else holds.
    "fill-exclusive-on-shared-read": ("fill-state", "Read", "S", "E"),
    # T copies survive a dirty flush, so a later validate would
    # re-install stale data: breaks the T discipline at the flush.
    "t-ignores-flush": ("remote-row", "T", "Read+flush", "T"),
    # A validate re-installs remote T copies as M, one writable copy
    # per T sharer: breaks SWMR at the first validate that finds one.
    "validate-installs-m": ("revalidated", "M"),
}

#: Shapes that patch a validate decision, so need a T state.
TEMPORAL_SHAPES = ("post-validate", "revalidated", "writes-back-flip")


def _force_fill(protocol: ProtocolLogic, txn: str, pre: str, post: str) -> None:
    kind_match = TxnKind(txn)
    orig = protocol.fill_state

    def fill_state(kind, result, _orig=orig):
        state = _orig(kind, result)
        if kind is kind_match and state is LineState(pre):
            return LineState(post)
        return state

    protocol.fill_state = fill_state  # type: ignore[method-assign]


def _force_post_validate(protocol: ProtocolLogic, letter: str) -> None:
    protocol.post_validate_state = lambda: LineState(letter)  # type: ignore[method-assign]


def _force_revalidated(protocol: ProtocolLogic, letter: str) -> None:
    protocol.revalidated_state = lambda: LineState(letter)  # type: ignore[method-assign]


def _flip_writes_back(protocol: ProtocolLogic) -> None:
    # ``validate_writes_back`` is a class-level property, so the flip
    # needs a throwaway subclass; the instance is a fresh copy anyway.
    flipped = not protocol.validate_writes_back
    base = type(protocol)
    protocol.__class__ = type(
        f"{base.__name__}WritesBackFlipped",
        (base,),
        {"validate_writes_back": property(lambda self: flipped)},
    )


def _force_remote_row(
    protocol: ProtocolLogic, pre: str, label: str, post: str
) -> None:
    orig = protocol.snoop_apply

    def snoop_apply(line, kind, result, _orig=orig):
        if (line.state.value != pre
                or ProtocolLogic.snoop_event_label(kind, result) != label):
            _orig(line, kind, result)
            return
        # Coverage must record the post-state the mutant forces, not
        # the one the real row computed.
        saved, protocol.observer = protocol.observer, None
        try:
            _orig(line, kind, result)
        finally:
            protocol.observer = saved
        line.state = LineState(post)
        protocol.note_transition("remote", pre, label, post)

    protocol.snoop_apply = snoop_apply  # type: ignore[method-assign]


# shape -> (patch, indices of the descriptor fields that name a state)
_SHAPES = {
    "fill-state": (_force_fill, (2, 3)),
    "post-validate": (_force_post_validate, (1,)),
    "revalidated": (_force_revalidated, (1,)),
    "writes-back-flip": (_flip_writes_back, ()),
    "remote-row": (_force_remote_row, (1, 3)),
}


def descriptor_name(mutant: Descriptor | str) -> str:
    """Stable name, e.g. ``remote-row:T:Read+flush:S``; a bare name is its own."""
    if isinstance(mutant, str):
        return mutant
    return ":".join(str(part) for part in mutant)


def _resolve(mutant: Descriptor | str) -> Descriptor:
    """The grammar descriptor behind a seeded name or reference."""
    descriptor = ("seeded", mutant) if isinstance(mutant, str) else tuple(mutant)
    if descriptor[0] == "seeded":
        if descriptor[1] not in SEEDED:
            raise ValueError(f"unknown mutation {descriptor[1]!r} "
                             f"(choose from {sorted(SEEDED)})")
        descriptor = SEEDED[descriptor[1]]
    if descriptor[0] not in _SHAPES:
        raise ValueError(f"unknown mutation descriptor {descriptor!r}")
    return descriptor


def _missing_state(logic: ProtocolLogic, descriptor: Descriptor) -> str | None:
    if descriptor[0] in TEMPORAL_SHAPES and not logic.has_temporal:
        return f"{logic.name} has no T state"
    letters = {state.value for state in logic.states()}
    for index in _SHAPES[descriptor[0]][1]:
        if descriptor[index] not in letters:
            return f"{logic.name} has no {descriptor[index]} state"
    return None


def inapplicable(
    logic: ProtocolLogic,
    mutant: Descriptor | str,
    interconnect: InterconnectKind = InterconnectKind.BUS,
) -> str | None:
    """Why ``mutant`` cannot run on ``logic`` over ``interconnect``, or None.

    A mutant needs every state it names, and the validate shapes need a
    T state.  A remote-row mutant also needs a live row: where the
    coverage classifier (:func:`~repro.verify.table.expected_rows`)
    marks it dead, the mutant behaves exactly like the real table.
    Raises ``ValueError`` for an unknown mutant.
    """
    descriptor = _resolve(mutant)
    missing = _missing_state(logic, descriptor)
    if missing or descriptor[0] != "remote-row":
        return missing
    rows = expected_rows(
        logic, directory=interconnect is InterconnectKind.DIRECTORY
    )
    dead = rows[("remote", descriptor[1], descriptor[2])]["unreachable"]
    if dead:
        return (f"row remote:{descriptor[1]}:{descriptor[2]} is dead on "
                f"the {interconnect.value}: {dead}")
    return None


def mutate(logic: ProtocolLogic, mutant: Descriptor | str) -> ProtocolLogic:
    """Return a fresh mutant copy of ``logic``; the argument is untouched.

    ``mutant`` is a descriptor or a seeded bug's name.  The copy is
    rebuilt from ``logic.config``, so the caller's instance and the
    class stay pristine; callers must use the return value.  Raises
    ``ValueError`` for an unknown mutant or one naming a missing state.
    """
    descriptor = _resolve(mutant)
    missing = _missing_state(logic, descriptor)
    if missing:
        raise ValueError(f"mutation {descriptor_name(mutant)!r}: {missing}")
    mutated = make_protocol(logic.config)
    _SHAPES[descriptor[0]][0](mutated, *descriptor[1:])
    return mutated


def seeded_plan(
    interconnect: InterconnectKind = InterconnectKind.BUS,
) -> tuple[tuple[str, Descriptor], ...]:
    """Every seeded bug ``interconnect`` can expose, with a protocol.

    Each bug runs on MESI if it applies there, else on MESTI (the
    simplest protocol with a T state), else not at all.  The campaign
    walks this plan before sampling randomly.
    """
    plan = []
    for name in sorted(SEEDED):
        for protocol in ("mesi", "mesti"):
            logic = ProtocolSpec(protocol).make_logic()
            if inapplicable(logic, name, interconnect) is None:
                plan.append((protocol, ("seeded", name)))
                break
    return tuple(plan)


def mutation_record(mutant: Descriptor | str, protocol: str, result) -> dict:
    """Summarize one mutant's :class:`~repro.verify.checker.CheckResult`.

    Shared by ``repro-sim check --mutate``, which adds the exercised
    ``rows``, and the fuzz campaign, which adds the ``descriptor``.
    """
    detected = not result.ok
    return {
        "name": descriptor_name(mutant),
        "protocol": protocol,
        "seeded": isinstance(mutant, str) or mutant[0] == "seeded",
        "detected": detected,
        "caught_as": result.violations[0].kind if detected else None,
        "trace_len": len(result.violations[0].trace) if detected else None,
        "states": result.states,
        "rows_reached": len(result.coverage.get("exercised", ())),
    }
