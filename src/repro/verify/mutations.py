"""Seeded protocol bugs for exercising the verification loop.

Each mutation patches one decision on a *fresh copy* of a
:class:`~repro.coherence.protocol.ProtocolLogic` instance (never the
class, and never the caller's instance) to re-introduce a plausible
implementation mistake.  The model checker must find a counterexample
for every mutation, and replaying that counterexample on the concrete
system must trip the runtime
:class:`~repro.coherence.validation.CoherenceChecker` the same way —
demonstrating that the abstract model, the invariants, and the replay
bridge all talk about the same machine.

:func:`apply_mutation` returns the mutated copy and leaves its
argument untouched.  The copy discipline is what makes mutation
testing safe to run in a loop (the fuzz campaign applies thousands of
mutations per process): a mutated table can never leak into a
subsequent clean run, because no live instance is ever patched in
place.

Mutations only make sense for temporal protocols, or on a bus, where
noted.
"""

from __future__ import annotations

from repro.coherence.messages import TxnKind
from repro.coherence.protocol import ProtocolLogic, make_protocol
from repro.coherence.states import LineState


def _validate_installs_m(protocol: ProtocolLogic) -> None:
    """Remote T copies re-install as M instead of shared.

    A validate then mints one writable copy per T sharer — the classic
    'forgot the requester keeps ownership' bug.  Breaks SWMR at the
    first validate with any remote T copy.
    """
    protocol.revalidated_state = lambda: LineState.M  # type: ignore[method-assign]


def _fill_exclusive_on_shared_read(protocol: ProtocolLogic) -> None:
    """Read fills install E even when the shared line was asserted.

    Breaks SWMR as soon as a read misses on a line someone else holds.
    """
    orig = protocol.fill_state

    def fill_state(kind, result, _orig=orig):
        state = _orig(kind, result)
        if kind is TxnKind.READ and state is LineState.S:
            return LineState.E
        return state

    protocol.fill_state = fill_state  # type: ignore[method-assign]


def _t_ignores_flush(protocol: ProtocolLogic) -> None:
    """T copies survive a dirty flush.

    The saved value is then older than the last globally visible one,
    so a later validate would re-install stale data.  Breaks the
    T-discipline invariant at the flush.
    """
    orig = protocol._apply_read

    def _apply_read(line, state, result, _orig=orig):
        if state is LineState.T:
            return  # bug: keep the rotten saved copy
        _orig(line, state, result)

    protocol._apply_read = _apply_read  # type: ignore[method-assign]


MUTATIONS = {
    "validate-installs-m": _validate_installs_m,
    "fill-exclusive-on-shared-read": _fill_exclusive_on_shared_read,
    "t-ignores-flush": _t_ignores_flush,
}

# Mutations that require the T machinery to be reachable at all.
TEMPORAL_ONLY = frozenset({"validate-installs-m", "t-ignores-flush"})

# Mutations of a row only a bus exercises.  A directory's home never
# contacts T-sharers on reads (a flushing read un-tracks them instead),
# so there the mutant behaves exactly like the real table.
BUS_ONLY = frozenset({"t-ignores-flush"})


def apply_mutation(protocol: ProtocolLogic, name: str) -> ProtocolLogic:
    """Return a mutated fresh copy of ``protocol``; the argument is untouched.

    The copy is rebuilt from ``protocol.config`` via
    :func:`~repro.coherence.protocol.make_protocol`, so the caller's
    instance (and any tables the class shares) stays byte-identical to
    pristine.  Callers must use the return value::

        ctrl.protocol = apply_mutation(ctrl.protocol, "t-ignores-flush")
    """
    try:
        patch = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r} (choose from {sorted(MUTATIONS)})"
        ) from None
    if name in TEMPORAL_ONLY and not protocol.has_temporal:
        raise ValueError(f"mutation {name!r} needs a temporal protocol")
    mutated = make_protocol(protocol.config)
    patch(mutated)
    return mutated
