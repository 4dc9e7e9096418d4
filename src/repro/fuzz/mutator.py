"""Random protocol-table and validate-policy mutations.

The verify subsystem ships three hand-seeded bugs
(:data:`repro.verify.mutations.MUTATIONS`); the campaign generalizes
them into a *descriptor* space it can sample forever.  A descriptor is
a plain tuple (picklable, hashable, reportable):

* ``("seeded", name)`` — one of the hand-seeded bugs;
* ``("fill-state", txn, pre, post)`` — requester fills install
  ``post`` instead of ``pre`` for transaction kind ``txn``;
* ``("post-validate", letter)`` — the validating owner retires to
  ``letter``;
* ``("revalidated", letter)`` — remote T copies re-install as
  ``letter`` on a validate;
* ``("writes-back-flip",)`` — invert whether a validate updates
  memory;
* ``("remote-row", pre, label, post)`` — force one row of the remote
  snoop table to land in ``post``.

:func:`apply_descriptor` builds each mutant on a **fresh**
:class:`~repro.coherence.protocol.ProtocolLogic` copy (same discipline
as :func:`~repro.verify.mutations.apply_mutation`), so mutants can
never leak between iterations.  Random sampling avoids the obvious
equivalent mutants (it probes the pristine table and picks a *different*
post state), but a random mutant the bounded checker does not flag is
still only evidence, not a finding — equivalent mutants exist.  The
hand-seeded bugs, by contrast, are known-detectable on the
interconnects :func:`seeded_plan` pairs them with: the campaign treats
any undetected seeded mutation as a ``mutation-escape`` finding.
"""

from __future__ import annotations

from repro.coherence.messages import SnoopResult, TxnKind
from repro.coherence.protocol import ProtocolLogic
from repro.coherence.states import LineState
from repro.common.config import InterconnectKind
from repro.common.rng import SplitRng
from repro.verify.model import ProtocolSpec
from repro.verify.mutations import (
    BUS_ONLY,
    MUTATIONS,
    TEMPORAL_ONLY,
    apply_mutation,
)

#: Descriptor tuple — see the module docstring for the grammar.
Descriptor = tuple


def seeded_plan(
    interconnect: InterconnectKind = InterconnectKind.BUS,
) -> tuple[tuple[str, Descriptor], ...]:
    """Every hand-seeded bug ``interconnect`` can expose, with a protocol.

    Temporal-only mutations run on MESTI (the simplest protocol with a
    T state); the rest run on plain MESI.  Bus-only mutations are left
    out of a directory plan: the directory never reaches the row they
    patch.  The campaign walks this plan before sampling randomly, so
    any budget >= its length rediscovers every planned bug.
    """
    return tuple(
        ("mesti" if name in TEMPORAL_ONLY else "mesi", ("seeded", name))
        for name in sorted(MUTATIONS)
        if interconnect is InterconnectKind.BUS or name not in BUS_ONLY
    )


def descriptor_name(descriptor: Descriptor) -> str:
    """Stable human-readable name, e.g. ``remote-row:T:Read+flush:S``."""
    return ":".join(str(part) for part in descriptor)


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
    protocol.post_validate_state = (  # type: ignore[method-assign]
        lambda: LineState(letter)
    )


def _force_revalidated(protocol: ProtocolLogic, letter: str) -> None:
    protocol.revalidated_state = (  # type: ignore[method-assign]
        lambda: LineState(letter)
    )


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
        match = (
            line.state.value == pre
            and ProtocolLogic.snoop_event_label(kind, result) == label
        )
        _orig(line, kind, result)
        if match:
            line.state = LineState(post)

    protocol.snoop_apply = snoop_apply  # type: ignore[method-assign]


def apply_descriptor(spec: ProtocolSpec, descriptor: Descriptor) -> ProtocolLogic:
    """Build a fresh mutant of ``spec``'s protocol from a descriptor."""
    kind = descriptor[0]
    if kind == "seeded":
        return apply_mutation(spec.make_logic(), descriptor[1])
    logic = spec.make_logic()
    if kind == "fill-state":
        _force_fill(logic, descriptor[1], descriptor[2], descriptor[3])
    elif kind == "post-validate":
        _force_post_validate(logic, descriptor[1])
    elif kind == "revalidated":
        _force_revalidated(logic, descriptor[1])
    elif kind == "writes-back-flip":
        _flip_writes_back(logic)
    elif kind == "remote-row":
        _force_remote_row(logic, descriptor[1], descriptor[2], descriptor[3])
    else:
        raise ValueError(f"unknown mutation descriptor {descriptor!r}")
    return logic


def random_descriptor(rng: SplitRng, spec: ProtocolSpec) -> Descriptor:
    """Sample one random descriptor valid for ``spec``.

    Samples are steered away from trivially equivalent mutants: the
    pristine table is probed first and the mutated outcome is always a
    *different* state letter.
    """
    logic = spec.make_logic()
    letters = [s.value for s in logic.states()]
    shapes = ["fill-state", "remote-row"]
    if logic.has_temporal:
        shapes += ["post-validate", "revalidated", "writes-back-flip"]
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
    # remote-row: probe a random legal row, force a different outcome.
    labels = logic.remote_event_labels()
    for _ in range(16):
        pre = rng.choice(tuple(letters))
        label = rng.choice(tuple(labels))
        post = logic.probe_remote(LineState(pre), label)
        if post == "illegal":
            continue
        forced = rng.choice(tuple(x for x in letters if x != post))
        return ("remote-row", pre, label, forced)
    # Every sampled row was illegal (vanishingly unlikely): fall back
    # to a known-meaningful row flip.
    return ("remote-row", "M", TxnKind.READX.value, "M")
